"""Exact dense linear algebra over a prime field F_p.

Everything downstream (multiplication-map matrices, cohomology tables,
stabilizer systems) reduces to ranks and kernels computed here, so this
module is deliberately small and deterministic.  Matrices are stored as
int64 numpy arrays with entries reduced to [0, p).

One forward elimination pass does all the row reduction: it brings a copy
of the matrix to row echelon form with unit pivots, taking as pivot the
first nonzero entry at or below the current row, and clears only below
each pivot.  rank counts its pivots.  rref follows it with back
substitution, clearing above each pivot from the last to the first, which
yields the reduced row echelon form; that form is unique for a fixed
column order, so kernel bases are reproducible bit-for-bit whatever the
pivot choice.

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

# pivot inversion uses pow(x, p - 2, p); row updates form products < p**2,
# which must stay inside int64
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

    def element(self, value) -> int:
        """Canonical representative of a scalar in this field."""
        return int(value) % self.p


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

    @staticmethod
    def identity(size: int, field: FieldSpec) -> "DenseMatrix":
        return DenseMatrix(size, size, field, np.eye(size, dtype=np.int64))

    @staticmethod
    def from_rows(entries, field: FieldSpec) -> "DenseMatrix":
        """Build from a nested sequence of scalars, reducing to canonical form."""
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        m = DenseMatrix.zeros(rows, cols, field)
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                m.data[i, j] = field.element(v)
        return m

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


def _clear(a: np.ndarray, rows: np.ndarray, r: int, c: int, p: int) -> None:
    """Zero column c of the given rows with multiples of unit-pivot row r.

    All these rows are zero before column c, so only columns c on change.
    """
    a[rows, c:] = (a[rows, c:] - np.outer(a[rows, c], a[r, c:])) % p


def _echelon_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of a reduced copy of a, with unit pivots.

    The pivot for column c is the first row at or below the next pivot
    position with a nonzero entry there; entries below each pivot are
    cleared, entries above are left alone.  Returns the echelon matrix and
    the pivot columns.
    """
    a = a % p
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = r + np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        if nz[0] != r:
            # the row swapped down is zero in column c, so the rows below r
            # that still need clearing are exactly nz[1:]
            a[[r, nz[0]]] = a[[nz[0], r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        if nz.size > 1:
            _clear(a, nz[1:], r, c, p)
        pivots.append(c)
    return a, pivots


def rank(m: DenseMatrix) -> int:
    return len(_echelon_mod(m.data, m.field.p)[1])


def rref(m: DenseMatrix) -> tuple[DenseMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    The echelon pass followed by clearing above each pivot, last pivot
    first.  The result is canonical: it depends only on the row space and
    the column order, never on pivot search details.
    """
    p = m.field.p
    red, piv = _echelon_mod(m.data, p)
    for r in range(len(piv) - 1, 0, -1):
        c = piv[r]
        above = np.flatnonzero(red[:r, c])
        if above.size:
            _clear(red, above, r, c, p)
    return DenseMatrix(m.rows, m.cols, m.field, red), tuple(piv)


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


def nullity(m: DenseMatrix) -> int:
    return m.cols - rank(m)
