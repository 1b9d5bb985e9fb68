"""Exact dense linear algebra over a prime field F_p.

Everything downstream (multiplication-map matrices, cohomology tables,
stabilizer systems) reduces to ranks and kernels computed here, so this
module is deliberately small and deterministic.  Matrices are stored as
int64 numpy arrays with entries reduced to [0, p).

All row reduction is one recursive routine that brings a matrix to
reduced row echelon form in place.  A block of at most 32 rows (a leaf) is
reduced one pivot at a time in int64: the pivot is the first nonzero entry
at or below the next pivot row, scaled to 1 and cleared from every other
row.  A leaf wider than 128 columns plus its row count works in column
panels of 128.  The per-pivot loop runs on one panel beside the leaf's
accumulated row operations T, which start as the identity, and searches
for pivots only within the panel; the next panel, or once every row has a
pivot all the remaining columns, is brought up to date by one product with
T.  So each pivot updates a panel rather than the leaf's full width.

A taller block is split in half; the top half is reduced, its pivot
columns are cleared from the bottom half by one matrix product, the bottom
half is reduced, and its pivot columns are cleared from the top by a
second product.  This is the recursive block elimination of FFLAS-FFPACK
(Dumas, Giorgi and Pernet) and of Albrecht, Bard and Pernet.  rank needs
only the pivots, so it skips the second product: a block's bottom half
then skips it too, while its top half, whose rows clear the bottom, is
always fully reduced.

The products run through float64 BLAS, with float64 only as a carrier for
exact integers: a bound checked at every product keeps each partial sum
below 2^53.  When k (p-1)^2 + p <= 2^53 for inner dimension k one gemm is
exact; otherwise both factors are split into 16-bit limbs and four gemms
are combined, which covers every prime below 2^31.  Sums are reduced with
floor(z * (1/p)) and one correction by p.  rank counts the pivots and rref
sorts the rows by pivot.  The reduced echelon form is unique for a fixed
column order, so ranks and kernel bases are reproducible bit-for-bit
whatever the split, the panel width or the pivot choice.

The random stream is SplitMix64, fixed here by its three 64-bit constants.
A (seed, counter) pair determines every draw, so any sampled object can be
reconstructed from the numbers recorded in a report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PRIME = 32003

# SplitMix64: draw k (counting from 1) mixes seed + k * gamma.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1

# pivot inversion uses pow(x, p - 2, p); int64 row updates form products
# < p**2, and float64 products split entries into two 16-bit limbs
_MAX_PRIME = 1 << 31

# uniform sampling below this modulus is rejected: genericity arguments need
# the field to be large enough that random matrices miss the bad locus
_MIN_SAMPLING_PRIME = 101


class SamplingError(ValueError):
    """Uniform sampling requested over a field that does not support it."""


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field F_p for a prime p < 2^31."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p!r} is not prime")
        if self.p >= _MAX_PRIME:
            raise ValueError(f"modulus {self.p} too large for int64 arithmetic")

    @staticmethod
    def prime(p: int = DEFAULT_PRIME) -> "FieldSpec":
        return FieldSpec(p)


class SeededRng:
    """Deterministic 64-bit stream, SplitMix64 with an explicit counter.

    Draw number k (1-based) returns mix64(seed + k * 0x9E3779B97F4A7C15)
    where mix64 is the standard SplitMix64 finalizer.  The counter equals
    the number of draws made, so (seed, counter) fully describes the state.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _U64
        self.counter = counter

    def next_u64(self) -> int:
        self.counter += 1
        z = (self.seed + self.counter * _SM_GAMMA) & _U64
        z = ((z ^ (z >> 30)) * _SM_MIX1) & _U64
        z = ((z ^ (z >> 27)) * _SM_MIX2) & _U64
        return z ^ (z >> 31)

    def state(self) -> tuple[int, int]:
        return (self.seed, self.counter)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, counter={self.counter})"


def random_field_element(rng: SeededRng, field: FieldSpec) -> int:
    """Uniform element of F_p; advances the counter by exactly one draw.

    The value is next_u64() mod p.  The modulo bias is below p / 2**64 and
    is irrelevant for genericity sampling.  Small primes are refused:
    sampling-based genericity arguments need p >= 101.
    """
    if field.p < _MIN_SAMPLING_PRIME:
        raise SamplingError(
            f"sampling needs a prime >= {_MIN_SAMPLING_PRIME}, got {field.p}"
        )
    return rng.next_u64() % field.p


class DenseMatrix:
    """Dense matrix over F_p: data is a 2-D int64 array with entries in [0, p)."""

    __slots__ = ("rows", "cols", "field", "data")

    def __init__(self, rows: int, cols: int, field: FieldSpec, data: np.ndarray):
        if data.shape != (rows, cols):
            raise ValueError(f"shape mismatch: {data.shape} vs ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self.field = field
        self.data = data

    @staticmethod
    def zeros(rows: int, cols: int, field: FieldSpec) -> "DenseMatrix":
        return DenseMatrix(rows, cols, field, np.zeros((rows, cols), dtype=np.int64))

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols} over F_{self.field.p})"


def transpose(m: DenseMatrix) -> DenseMatrix:
    return DenseMatrix(m.cols, m.rows, m.field, m.data.T.copy())


# blocks of at most this many rows are reduced one pivot at a time in int64;
# taller ones are split in half and joined by two matrix products
_LEAF_ROWS = 32

# a leaf searches for pivots in panels of this many columns, so each pivot
# updates a panel rather than the leaf's full width
_PANEL_COLS = 128

# float64 holds every integer of absolute value up to 2^53 exactly
_EXACT = 1 << 53

# the limb path splits entries below 2^31 into 16-bit halves and sums at
# most k = _LIMB_INNER_MAX products of halves in one gemm, so that k * 2^32
# plus a reduced term shifted by 2^16, plus p, stays within 2^53
_LIMB = 1 << 16
_LIMB_INNER_MAX = (_EXACT - (1 << 48)) >> 32


def _reduce(z: np.ndarray, p: int) -> None:
    """Reduce float64 integers with |z| + p <= 2^53 into [0, p), in place.

    The float quotient z * (1/p) is within 2/p of z / p, so its floor is off
    by at most one, which one correction by p repairs.
    """
    q = z * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    z -= q
    np.add(z, p, out=z, where=z < 0)
    np.subtract(z, p, out=z, where=z >= p)


def _single_gemm_max(p: int) -> int:
    """Largest inner dimension k with k * (p-1)^2 + p <= 2^53."""
    return (_EXACT - p) // (p - 1) ** 2


def _sub_mul_mod(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> None:
    """c <- (c - a @ b) mod p in place, exactly; all hold integers in [0, p).

    Up to _single_gemm_max(p) terms every partial sum and c - a @ b stay
    within 2^53, so one float64 gemm is exact.  Beyond it both factors are
    split into 16-bit limbs, a = a1 * 2^16 + a0, and the four limb
    products are combined Horner-style with a reduction after each step.
    """
    k = a.shape[1]
    if k <= _single_gemm_max(p):
        c -= a @ b
        _reduce(c, p)
        return
    for s in range(0, k, _LIMB_INNER_MAX):
        a1, a0 = np.divmod(a[:, s : s + _LIMB_INNER_MAX], _LIMB)
        b1, b0 = np.divmod(b[s : s + _LIMB_INNER_MAX], _LIMB)
        t = a1 @ b1
        _reduce(t, p)
        t *= _LIMB
        t += a1 @ b0
        t += a0 @ b1
        _reduce(t, p)
        t *= _LIMB
        t += a0 @ b0
        c -= t
        _reduce(c, p)


def _echelon_mod(a: np.ndarray, p: int, reduced: bool = True) -> list[int]:
    """Bring a to row echelon form in place; return its pivots.

    a is a float64 array of integers in [0, p).  On return its first r
    rows are the nonzero rows of an echelon form, row i with its pivot in
    the i-th returned column; they are not sorted by pivot, and the rows
    below them hold leftovers.  With reduced, the default, each pivot
    column is zero outside its pivot row, so the rows are the reduced
    echelon form; without it, only rank's count of pivots is meaningful.
    A block of at most _LEAF_ROWS rows is the int64 base case, worked one
    column panel at a time; a taller one recurses on its halves as the
    module docstring describes, then moves the bottom's nonzero rows up
    under the top's.
    """
    rows, cols = a.shape
    if rows <= _LEAF_ROWS:
        # a leaf wider than one panel plus its row operations t carries t
        # beside each panel; narrower, one panel and no t is cheaper
        panels = cols > _PANEL_COLS + rows
        width = _PANEL_COLS if panels else max(cols, 1)
        t = np.eye(rows, rows if panels else 0, dtype=np.int64)
        pivots: list[int] = []
        for s in range(0, cols, width):
            # once every row has a pivot, the rest of the leaf is one panel
            end = cols if len(pivots) == rows else s + width
            if s:
                b = a[:, s:end]
                tb = np.zeros(b.shape)
                _sub_mul_mod(tb, (-t % p).astype(np.float64), b, p)
                b[...] = tb
            if len(pivots) == rows:
                break
            panel = a[:, s : s + width]
            w = panel.shape[1]
            x = np.hstack((panel.astype(np.int64), t))
            c = 0
            while len(pivots) < rows:
                r = len(pivots)
                live = np.flatnonzero(x[r:, c:w].any(axis=0))
                if live.size == 0:
                    break
                c += int(live[0])
                nz = r + np.flatnonzero(x[r:, c])
                if nz[0] != r:
                    x[[r, nz[0]]] = x[[nz[0], r]]
                x[r, c:] = x[r, c:] * pow(int(x[r, c]), p - 2, p) % p
                others = np.flatnonzero(x[:, c])
                others = others[others != r]
                if others.size:
                    # row r is zero before column c, so only columns c on change
                    x[others, c:] = (x[others, c:] - np.outer(x[others, c], x[r, c:])) % p
                pivots.append(s + c)
                c += 1
            # rows below the pivots are now zero in this panel, so the later
            # pivots, taken from those rows, leave its columns as they are
            panel[...] = x[:, :w]
            t = x[:, w:]
        return pivots
    h = rows // 2
    top, bottom = a[:h], a[h:]
    # the top's rows clear the bottom, so they must be reduced
    top_piv = _echelon_mod(top, p)
    r1 = len(top_piv)
    if r1:
        # the top's reduced rows are zero before their first pivot
        c0 = min(top_piv)
        _sub_mul_mod(bottom[:, c0:], bottom[:, top_piv], top[:r1, c0:], p)
    bottom_piv = _echelon_mod(bottom, p, reduced)
    r2 = len(bottom_piv)
    if reduced and r1 and r2:
        c0 = min(bottom_piv)
        _sub_mul_mod(top[:r1, c0:], top[:r1, bottom_piv], bottom[:r2, c0:], p)
    if r2 and r1 < h:
        a[r1 : r1 + r2] = bottom[:r2]
    return top_piv + bottom_piv


def _carrier(m: DenseMatrix) -> np.ndarray:
    """float64 copy of m's entries, reduced into [0, p).

    Only entries outside [0, p), which DenseMatrix never makes itself but
    a library caller can store, cost a reduction before the conversion.
    """
    data = m.data
    if data.size and (data.min() < 0 or data.max() >= m.field.p):
        data = data % m.field.p
    return data.astype(np.float64)


def rank(m: DenseMatrix) -> int:
    return len(_echelon_mod(_carrier(m), m.field.p, reduced=False))


def rref(m: DenseMatrix) -> tuple[DenseMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    The result is canonical: it depends only on the row space and the
    column order, never on pivot search details.
    """
    a = _carrier(m)
    piv = _echelon_mod(a, m.field.p)
    order = np.argsort(piv)
    red = np.zeros(m.data.shape, dtype=np.int64)
    red[: len(piv)] = a[order]
    return DenseMatrix(m.rows, m.cols, m.field, red), tuple(sorted(piv))


def kernel_basis(m: DenseMatrix) -> DenseMatrix:
    """Canonical basis of the right kernel, one column per free column.

    Basis vector for free column f has a 1 in position f and -RREF[r, f]
    in the position of the r-th pivot column.  Returned as a cols x nullity
    matrix whose columns are ordered by increasing free column index.
    """
    red, piv = rref(m)
    piv = list(piv)
    is_free = np.ones(m.cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    k = DenseMatrix.zeros(m.cols, free.size, m.field)
    k.data[free, np.arange(free.size)] = 1
    k.data[piv, :] = -red.data[: len(piv), free] % m.field.p
    return k
