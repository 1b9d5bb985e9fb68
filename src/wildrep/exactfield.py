"""Exact dense linear algebra over a prime field F_p.

Everything downstream (multiplication-map matrices, cohomology tables,
stabilizer systems) reduces to ranks and kernels computed here, so this
module is deliberately small and deterministic.  A matrix is a plain 2-D
numpy array of int64 or of integer-valued float64, passed with the
FieldSpec of its prime as in FFLAS-FFPACK; results are int64 with entries
in [0, p), and an input is reduced into [0, p) on entry and never
modified.

All row reduction is one recursive routine that brings a matrix to
reduced row echelon form in place.  A block of at most 32 rows (a leaf) is
reduced left-looking in int64.  It walks, left to right, only its live
columns (row operations keep a zero column zero), forming each as it
stands now, T a[:, c] mod p, from the leaf's row operations T.  A pivot
changes only T, so it costs O(rows^2) however wide the leaf.  When a
column has no entry at or below the next pivot row, one product of T's
remaining rows with the columns after it finds the next pivot column, and
the walk drops the columns that are zero there.  A last product writes
T a into the leaf.  The matvec runs whole in int64 when rows (p-1)^2 <
2^63, otherwise against 16-bit limbs of the column.

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
are combined, which covers every prime below 2^31.  Each product reduces
its sums as z - p floor(z / p) by one correctly rounded division, which
needs no correction, so every block the elimination reads holds integers
in [0, p): the carrier is reduced once on entry, and every product that
writes a block leaves it reduced.  rank counts the pivots and rref sorts
the rows by pivot.  The reduced echelon form is unique for a fixed column
order, so ranks and kernel bases are reproducible bit-for-bit whatever the
split, the walk or the pivot.

The random stream is SplitMix64, fixed here by its three 64-bit constants.
Draw k is a closed form in (seed, k), so a batch of draws is computed at
once in uint64 arithmetic, which wraps mod 2^64 as SplitMix64 needs; it is
the same stream as drawing one at a time.  A (seed, counter) pair
determines every draw, so any sampled object can be reconstructed from the
numbers recorded in a report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PRIME = 32003

# SplitMix64: draw k (counting from 1) mixes seed + k * gamma.  The
# constants are np.uint64 so that no operand promotes the stream to float64
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = (1 << 64) - 1

# pivot inversion uses pow(x, -1, p); int64 row updates form products
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
        # the size check comes first: trial division of a large modulus
        # takes up to sqrt(p) steps
        if self.p >= _MAX_PRIME:
            raise ValueError(f"modulus {self.p} too large for int64 arithmetic")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p!r} is not prime")

    @staticmethod
    def prime(p: int = DEFAULT_PRIME) -> "FieldSpec":
        return FieldSpec(p)


class SeededRng:
    """Deterministic 64-bit stream, SplitMix64 with an explicit counter.

    Draw number k (1-based) is mix64(seed + k * 0x9E3779B97F4A7C15)
    where mix64 is the standard SplitMix64 finalizer.  The counter equals
    the number of draws made, so (seed, counter) fully describes the state.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _U64
        self.counter = counter

    def state(self) -> tuple[int, int]:
        return (self.seed, self.counter)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, counter={self.counter})"


def random_field_elements(rng: SeededRng, field: FieldSpec, count: int) -> np.ndarray:
    """count uniform elements of F_p as int64; advances the counter by count.

    Element i is draw counter + 1 + i mod p, all computed in one batch of
    uint64 arithmetic.  The modulo bias is below p / 2**64 and is
    irrelevant for genericity sampling.  Small primes are refused:
    sampling-based genericity arguments need p >= 101.  Both refusals
    leave the counter untouched.
    """
    if count < 0:
        raise ValueError(f"cannot draw {count} field elements")
    if field.p < _MIN_SAMPLING_PRIME:
        raise SamplingError(
            f"sampling needs a prime >= {_MIN_SAMPLING_PRIME}, got {field.p}"
        )
    # array-valued even for one draw: uint64 arrays wrap silently, scalars warn
    k = np.arange(1, count + 1, dtype=np.uint64) + np.uint64(rng.counter & _U64)
    z = np.uint64(rng.seed) + k * _SM_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM_MIX1
    z = (z ^ (z >> np.uint64(27))) * _SM_MIX2
    z ^= z >> np.uint64(31)
    rng.counter += count
    return (z % np.uint64(field.p)).astype(np.int64)


# blocks of at most this many rows are reduced one pivot at a time in int64;
# taller ones are split in half and joined by two matrix products
_LEAF_ROWS = 32

# float64 holds every integer of absolute value up to 2^53 exactly
_EXACT = 1 << 53

# the limb path splits entries below 2^31 into 16-bit halves and sums at
# most k = _LIMB_INNER_MAX products of halves in one gemm, so that k * 2^32
# plus a term in [-p, 2p) shifted by 2^16, plus p, stays within 2^53
_LIMB = 1 << 16
_LIMB_INNER_MAX = (_EXACT - (1 << 49)) >> 32


def _reduce(z: np.ndarray, p: int) -> None:
    """Reduce float64 integers with |z| + p <= 2^53 into [0, p), in place.

    The correctly rounded quotient fl(z / p) has floor n = floor(z / p).
    Rounding moves z / p by at most 2^-53 |z / p| < 1 / p, as |z| < 2^53.
    The floats n and n + 1 lie within 2^53, so rounding, which is
    monotone, keeps fl(z / p) in [n, n + 1].  It reaches n + 1 only if z / p
    lies within 1 / p of it, and a non-integer z / p lies at least 1 / p
    from every integer; an integer z / p is exact.  So n p and z - n p,
    integers of size below 2^53, are exact, and z - n p is in [0, p).
    """
    q = z / p
    np.floor(q, out=q)
    q *= p
    z -= q


def _single_gemm_max(p: int) -> int:
    """Largest inner dimension k with k * (p-1)^2 + p <= 2^53."""
    return (_EXACT - p) // (p - 1) ** 2


def _sub_mul_mod(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> None:
    """c <- (c - a @ b) mod p in place, exactly; all hold integers in [0, p).

    Up to _single_gemm_max(p) terms every partial sum and c - a @ b stay
    within 2^53, so one float64 gemm is exact.  Beyond it both factors are
    split into 16-bit limbs, a = a1 * 2^16 + a0, and the four limb
    products are combined Horner-style.  Between steps t - p floor(t / p)
    only brings t into [-p, 2p); the last reduction repairs the rest.
    """
    k = a.shape[1]
    if k <= _single_gemm_max(p):
        c -= a @ b
        _reduce(c, p)
        return
    for s in range(0, k, _LIMB_INNER_MAX):
        a0, b0 = a[:, s : s + _LIMB_INNER_MAX], b[s : s + _LIMB_INNER_MAX]
        a1, b1 = np.floor(a0 * (1.0 / _LIMB)), np.floor(b0 * (1.0 / _LIMB))
        a0, b0 = a0 - a1 * _LIMB, b0 - b1 * _LIMB
        t = a1 @ b1
        q = np.empty_like(t)
        for terms in (((a1, b0), (a0, b1)), ((a0, b0),)):
            np.multiply(t, 1.0 / p, out=q)
            np.floor(q, out=q)
            q *= p
            t -= q
            t *= _LIMB
            for x, y in terms:
                np.matmul(x, y, out=q)
                t += q
        c -= t
        _reduce(c, p)


def _echelon_mod(a: np.ndarray, p: int, reduced: bool = True) -> list[int]:
    """Bring a to row echelon form in place; return its pivots.

    a is a float64 array of integers in [0, p), and so is every block the
    recursion passes on: _carrier reduces the input once and _sub_mul_mod
    keeps each cleared block in [0, p).  On return its first r rows are
    the nonzero rows of an echelon form, row i with its pivot in the i-th
    returned column; they are not sorted by pivot, and the rows below them
    hold leftovers.  With reduced, the default, each pivot column is zero
    outside its pivot row, so the rows are the reduced echelon form;
    without it, only rank's count of pivots is meaningful.  A block of at
    most _LEAF_ROWS rows is the left-looking int64 base case; a taller one
    recurses on its halves as the module docstring describes, then moves
    the bottom's nonzero rows up under the top's.
    """
    rows = a.shape[0]
    if rows <= _LEAF_ROWS:
        live = np.flatnonzero(a.any(axis=0))
        sub = a[:, live]
        col_of = sub.T.astype(np.int64)
        split = rows * (p - 1) ** 2 >= 1 << 63
        if split:
            hi, lo = np.divmod(col_of, _LIMB)
        t = np.eye(rows, dtype=np.int64)
        pivots: list[int] = []
        walk, k = range(live.size), 0
        while len(pivots) < rows and k < len(walk):
            j, r = walk[k], len(pivots)
            if split:
                col = ((t @ hi[j]) % p * _LIMB + t @ lo[j]) % p
            else:
                col = t @ col_of[j] % p
            nz = col[r:].nonzero()[0]
            if not nz.size:
                # the walk goes on over the columns still nonzero below row r
                ahead = np.zeros((rows - r, live.size - j - 1))
                _sub_mul_mod(ahead, (-t[r:] % p).astype(np.float64), sub[:, j + 1 :], p)
                walk, k = (j + 1 + np.flatnonzero(ahead.any(axis=0))).tolist(), 0
                continue
            i = r + int(nz[0])
            if i != r:
                t[r], t[i] = t[i], t[r].copy()
                col[r], col[i] = col[i], col[r]
            # row r becomes inv * t[r], every other row i drops col[i] * that
            inv = pow(int(col[r]), -1, p)
            col = col * inv % p
            col[r] = 1 - inv
            t -= col[:, None] * t[r]
            t %= p
            pivots.append(int(live[j]))
            k += 1
        if pivots and reduced:
            # T a in place, as a - (I - T) a: rows terms are one chunk, read before written
            _sub_mul_mod(a, ((np.eye(rows, dtype=np.int64) - t) % p).astype(np.float64), a, p)
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


def _carrier(a: np.ndarray, p: int) -> np.ndarray:
    """C-ordered float64 copy of a's entries, reduced into [0, p).

    Only entries outside [0, p), which a library caller can pass, cost a
    reduction before the conversion.  The order is explicit because astype
    keeps the F order of a transposed view.
    """
    if a.size and (a.min() < 0 or a.max() >= p):
        a = a % p
    return a.astype(np.float64, order="C")


def rank(a: np.ndarray, field: FieldSpec) -> int:
    return len(_echelon_mod(_carrier(a, field.p), field.p, reduced=False))


def rref(a: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of a 2-D int64 array, and its pivot columns.

    The result is canonical: it depends only on the row space and the
    column order, never on pivot search details.
    """
    work = _carrier(a, field.p)
    piv = _echelon_mod(work, field.p)
    red = np.zeros(a.shape, dtype=np.int64)
    red[: len(piv)] = work[np.argsort(piv)]
    return red, tuple(sorted(piv))


def kernel_basis(a: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Canonical basis of the right kernel, one column per free column.

    Basis vector for free column f has a 1 in position f and -RREF[r, f]
    in the position of the r-th pivot column.  Returned as a cols x nullity
    array whose columns are ordered by increasing free column index.
    """
    red, piv = rref(a, field)
    piv = list(piv)
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    k = np.zeros((a.shape[1], free.size), dtype=np.int64)
    k[free, np.arange(free.size)] = 1
    k[piv, :] = -red[: len(piv), free] % field.p
    return k
