"""Exact dense linear algebra over a prime field F_p.

Everything downstream (multiplication-map matrices, cohomology tables,
stabilizer systems) reduces to ranks and kernels computed here, so this
module is deliberately small and deterministic.  A matrix is a plain 2-D
numpy array of int64 or of integer-valued float64, passed with the
FieldSpec of its prime as in FFLAS-FFPACK.  There are two operations:
rank, an int, and left_kernel, a float64 array of integers in [0, p) with
one row per basis vector.  An input is reduced into [0, p) on entry and
never modified.

All row reduction is one recursive routine that brings a matrix to
reduced row echelon form in place.  A block of at most 32 rows (a leaf) is
reduced left-looking in int64.  It walks, left to right, only its live
columns (row operations keep a zero column zero), forming each as it
stands now, T a[:, c] mod p, from the leaf's row operations T.  A pivot
changes only T, so it costs O(rows^2) however wide the leaf.  When a
column has no entry at or below the next pivot row, one product of T's
remaining rows with the columns after it finds the next pivot column, and
the walk drops the columns that are zero there.  The leaf returns T, and
a last product writes T a into the block.  The matvec runs whole in int64
when rows (p-1)^2 < 2^63, otherwise against 16-bit limbs of the column.
T is invertible and its rows below the rank annihilate a, so they are a
basis of the left kernel: left_kernel reads them off one leaf, with no
reduced form and no final product, for a of at most 32 rows.  A taller a
has its transpose brought to reduced echelon form, and the kernel is read
off those rows where they stand, unsorted: the vector for a free column f
is 1 at f and, at the pivot column of each reduced row, minus that row's
entry at f (the transformation-matrix nullspace of Jeannerod, Pernet and
Storjohann, J. Symb. Comput. 56, 2013).

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
exact; otherwise the left factor is split into as few limbs as keep a
chunk of min(k, 512) terms exact, one gemm each, combined Horner-style:
two limbs at 11343469, three at 2^31 - 1 (the error-free slicing of Ozaki,
Ogita, Oishi and Rump, Numer. Algorithms 59, 2012).  Each product reduces
its sums as z - p floor(z / p) by one correctly rounded division, which
needs no correction, so every block the elimination reads holds integers
in [0, p): the carrier is reduced once on entry, and every product that
writes a block leaves it reduced.  rank counts the pivots.  The reduced
echelon form is unique for a fixed column order, so ranks and the left
kernel of a tall a, whose rows come in increasing free column, are
reproducible bit-for-bit whatever the split, the walk or the pivot.  A
left kernel from a leaf depends on its first-nonzero pivoting as well; it
is just as deterministic, and the pipeline uses only its span.

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
# < p**2, and the leaf's int64 matvec splits a column into two 16-bit limbs
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

# the leaf's matvec splits a column below 2^31 into 16-bit halves once
# rows (p-1)^2 reaches 2^63, so that each int64 sum stays below 2^63
_LIMB = 1 << 16


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


def _limb_plan(p: int, k: int) -> tuple[int, int, int]:
    """(limbs, w, chunk): the fewest limbs of the left factor, their width
    in bits and the most terms one chunk may sum, for inner dimension k.

    One limb is the factor itself, with chunk _single_gemm_max(p).  With
    L >= 2 limbs of w = ceil(bits(p-1) / L) bits, a limb is below 2^w, so
    a Horner step that shifts a reduced t and adds a chunk of limb products
    gives 0 <= t <= (p-1) 2^w + chunk (2^w - 1)(p-1).  _reduce then sees t,
    and c - t for c in [0, p), of size at most max(t, p-1); it needs
    |z| + p <= 2^53, which holds for
    chunk <= (2^53 - p - (p-1) 2^w) / ((2^w - 1)(p-1)).  L grows until a
    chunk holds min(k, 512) terms, which three limbs do below 2^31.
    """
    bits = (p - 1).bit_length()
    limbs, w, chunk = 1, bits, _single_gemm_max(p)
    while chunk < min(k, 512):
        limbs += 1
        w = -(-bits // limbs)
        chunk = (_EXACT - p - (p - 1 << w)) // (((1 << w) - 1) * (p - 1))
    return limbs, w, chunk


def _sub_mul_mod(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> None:
    """c <- (c - a @ b) mod p in place, exactly; all hold integers in [0, p).

    Up to _single_gemm_max(p) terms, k = 0 included, one float64 gemm is
    exact.  Beyond it each chunk of _limb_plan's is t = a_(L-1) b, then
    t <- (t mod p) 2^w + a_i b down to i = 0, and c <- (c - t) mod p, for
    the limbs a_i = h_i - 2^w h_(i+1) of the heads h_i = floor(a / 2^(w i)).
    Every limb gemm of a chunk runs before c is written, so b may alias c
    within one chunk.
    """
    k = a.shape[1]
    if k <= _single_gemm_max(p):
        c -= a @ b
        _reduce(c, p)
        return
    limbs, w, chunk = _limb_plan(p, k)
    for s in range(0, k, chunk):
        part, rows = a[:, s : s + chunk], b[s : s + chunk]
        heads = [np.floor(part * 2.0 ** (-w * i)) for i in range(limbs - 1, -1, -1)]
        t = heads[0] @ rows
        for upper, head in zip(heads, heads[1:]):
            _reduce(t, p)
            t *= 1 << w
            t += (head - upper * (1 << w)) @ rows
        c -= t
        _reduce(c, p)


def _leaf(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Pivots of a, a float64 array of integers in [0, p) left unmodified,
    and the int64 row transform t in [0, p) with t a mod p in reduced
    echelon form, row i with its pivot in column pivots[i].

    The walk goes left to right, so the pivots increase.  Rows at or below
    the next pivot row are only ever combined among themselves, and the
    look-ahead product drops only columns that are zero there.  So at exit
    t[len(pivots):] a = 0 mod p, and t, made of row swaps, unit scalings
    and row additions, is invertible mod p.
    """
    rows = a.shape[0]
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
    return pivots, t


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
    most _LEAF_ROWS rows is the left-looking int64 _leaf; a taller one
    recurses on its halves as the module docstring describes, then moves
    the bottom's nonzero rows up under the top's.
    """
    rows = a.shape[0]
    if rows <= _LEAF_ROWS:
        pivots, t = _leaf(a, p)
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


def left_kernel(a: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Basis of {y : y a = 0 mod p}, one float64 row in [0, p) per missing
    rank: up to _LEAF_ROWS rows, the rows of _leaf's transform below the
    rank; above, the canonical kernel of a^T, one row per free column."""
    p = field.p
    if a.shape[0] <= _LEAF_ROWS:
        pivots, t = _leaf(_carrier(a, p), p)
        return t[len(pivots) :].astype(np.float64)
    work = _carrier(a.T, p)
    pivots = _echelon_mod(work, p)
    # row i of work has its pivot in column pivots[i], so nothing is sorted
    free = np.ones(a.shape[0], dtype=bool)
    free[pivots] = False
    ker = np.zeros((a.shape[0] - len(pivots), a.shape[0]))
    ker[:, free] = np.eye(ker.shape[0])
    x = work[: len(pivots)][:, free].T
    ker[:, pivots] = np.where(x, p - x, 0)
    return ker
