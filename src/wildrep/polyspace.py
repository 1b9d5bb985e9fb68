"""Graded pieces of polynomial rings and their multiplication maps.

Monomial bases of R_d = K[x_0..x_n]_d are enumerated once, in graded
reverse lexicographic order with x_0 > x_1 > ... > x_n, and that order is
fixed forever: matrix columns, kernel bases and serialized reports all
refer to it.

Hilbert functions of quotient rings come from graded Betti data: for a
complete intersection the twists are the Koszul sums of sub-multisets of
the degrees.  Normal forms modulo an ideal are computed degree by degree
from a reduced row echelon basis of the ideal's graded piece; monomials
outside the pivot set represent the quotient, so no Groebner machinery is
needed.  The normal-form matrix N_k of R_k -> (R/I)_k is the transposed
canonical kernel basis of that echelon basis.

A matrix of linear forms phi induces, in each degree m, a linear map
(R/I)_m^b -> (R/I)_(m+1)^a.  mult_map builds it for every complete
intersection, with Phi_k = phi's coefficients of x_k and S_k the shift
table of multiplication by x_k, in one of two ways.  On P^n, the
complete intersection of codimension 0, the targets x_k u of one source
monomial u are distinct, so every entry is a single coefficient,

    M[(i, S_k(u)), (j, u)] = Phi_k[i, j],

written by one scatter per k with no sum.  On X the shifted monomials
reduce to normal forms, and

    M[(i, r), (j, u)] = sum_k Phi_k[i, j] N_(m+1)[r, S_k(u)]

is one contraction of inner dimension n + 1 against columns gathered
from N_(m+1).  It runs through the exact float64 product of the exactfield
module, so the 2^53 bound and the 16-bit limbs cover every accepted prime,
once per a-th of the target monomials with all target blocks stacked.

map_rank ranks a map on P^n with a <= b by the pivot split of Faugere and
Lachartre.  For a Phi_k of full row rank a, x_n tried first, the source
basis change G = [R | K] with Phi_k R = I and Phi_k K = 0 keeps the rank and
gives Phi'_k = [I | 0] in phi' = phi G.  Graded by the exponent e of x_k,
the targets of M' = mult_map(phi', m) split into R_0..R_(m+1), the sources
of the first a copies into P_e and the others into Q_e.  x_k maps P_e onto
R_(e+1), so M'[R_(>=1), P] is I plus the blocks N_e = M'[R_(e+1), P_(e+1)]:
a N_m pivots with no search.  The rest is the rank of the Schur complement
S on R_0, with Q_0 block S_Q0 = M'[R_0, Q_0] and Q_(e+1) block S_Q(e+1) =
-W_e M'[R_(e+1), Q_(e+1)], for W_0 = M'[R_0, P_0] and W_(e+1) = -W_e N_e.
Let L, delta x |R_0|, be the canonical left kernel of S_Q0: kernel_basis
of its transpose, transposed.  An invertible row transform whose last rows
are L turns S into [[A, *], [0, L S_Q(>=1)]] with A of full row rank
|R_0| - delta, so

    rank S = |R_0| - delta + rank L [S_Q1 | ... | S_Qm],

and the chain carries the delta rows L W_e instead of W_e: L W_0 =
L M'[R_0, P_0] and [L S_Q(e+1) | L W_(e+1)] = -L W_e M'[R_(e+1), Q_(e+1)
P_(e+1)].  At most twists of the ambient tables delta = 0, and then
nothing is multiplied after phi G.  On X normal-form tails break the unit
block, so there, as for a > b or with no such Phi_k, the map itself is
eliminated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .exactfield import DenseMatrix, _sub_mul_mod, kernel_basis, rank, rref, transpose

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .presentation import LinearFormMatrix
    from .restriction import ACMVarietyDescriptor


def binom(m: int, k: int) -> int:
    """Binomial coefficient, zero outside the combinatorial range."""
    if k < 0 or m < k:
        return 0
    return math.comb(m, k)


def chi_binom(n: int, k: int) -> int:
    """Polynomial extension of C(n + k, n): (k+1)(k+2)...(k+n) / n!.

    Agrees with binom(n + k, n) for k >= 0, vanishes for -n <= k <= -1,
    and equals (-1)^n * C(-k-1, n) for k <= -n - 1.  Always an integer.
    """
    num = 1
    for i in range(1, n + 1):
        num *= k + i
    return num // math.factorial(n)


def basis_dim(n: int, d: int) -> int:
    """dim R_d for n + 1 variables; zero in negative degrees."""
    return binom(n + d, n)


@lru_cache(maxsize=None)
def _monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    # grevlex-descending: group by ascending exponent of the last variable
    if d < 0:
        return ()
    if n == 0:
        return ((d,),)
    out: list[tuple[int, ...]] = []
    for k in range(d + 1):
        for m in _monomials(n - 1, d - k):
            out.append(m + (k,))
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_index(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(_monomials(n, d))}


@lru_cache(maxsize=None)
def _product_table(n: int, d: int, e: int) -> np.ndarray:
    """table[u, w] = index of (u-th degree-d monomial) * (w-th degree-e
    monomial) in degree d + e; e = 1 gives the shift by each variable.
    For d < 0 the table is empty and the degree-e monomials are never
    enumerated."""
    index = _monomial_index(n, d + e)
    table = np.array(
        [[index[tuple(a + b for a, b in zip(u, w))] for w in _monomials(n, e)]
         for u in _monomials(n, d)],
        dtype=np.intp,
    ).reshape(len(_monomials(n, d)), basis_dim(n, e))
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class ResolutionDegreeData:
    """Twists of a graded free resolution of a quotient ring R/I.

    betti[i - 1] lists the twists n_j^i of the i-th free module F_i, with
    multiplicity, sorted ascending.  F_0 = R is implicit.
    """

    n: int
    betti: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for twists in self.betti:
            for t in twists:
                if t < 1:
                    raise ValueError(f"resolution twist {t} < 1")
            if tuple(sorted(twists)) != twists:
                raise ValueError("twists must be sorted ascending")

    @property
    def c(self) -> int:
        """Length of the resolution (codimension for a complete intersection)."""
        return len(self.betti)


def koszul_degree_data(n: int, degrees: tuple[int, ...]) -> ResolutionDegreeData:
    """Koszul resolution twists for a complete intersection of the given degrees.

    The i-th free module has one twist for every i-element sub-multiset:
    the sum of the chosen degrees.
    """
    degrees = tuple(degrees)
    for e in degrees:
        if e < 1:
            raise ValueError(f"complete intersection degree {e} < 1")
    betti = []
    for i in range(1, len(degrees) + 1):
        twists = sorted(sum(sub) for sub in combinations(degrees, i))
        betti.append(tuple(twists))
    return ResolutionDegreeData(n, tuple(betti))


def hilbert_function(res: ResolutionDegreeData, k: int) -> int:
    """dim (R/I)_k from resolution degree data, truncated binomials.

    Alternating sum C(n+k, n) - sum_i (-1)^(i+1) sum_j C(n+k-n_j^i, n)
    with C(m, n) = 0 for m < n.
    """
    n = res.n
    total = binom(n + k, n)
    for i, twists in enumerate(res.betti, start=1):
        sign = -1 if i % 2 == 1 else 1
        for t in twists:
            total += sign * binom(n + k - t, n)
    return total


def hilbert_polynomial(res: ResolutionDegreeData, k: int) -> int:
    """Hilbert polynomial value at k: same sum with signed binomials.

    For an arithmetically Cohen-Macaulay quotient this equals the sheaf
    Euler characteristic chi(O_X(k)) at every integer k.
    """
    n = res.n
    total = chi_binom(n, k)
    for i, twists in enumerate(res.betti, start=1):
        sign = -1 if i % 2 == 1 else 1
        for t in twists:
            total += sign * chi_binom(n, k - t)
    return total


class RegularityError(RuntimeError):
    """Quotient ring dimensions disagree with the resolution degree data."""


@dataclass(frozen=True)
class QuotientPiece:
    """Degree-k piece of R/I: surviving monomials and the reduction matrix.

    monomial_indices are the non-pivot columns of the RREF of I_k; they
    index monomials of R_k that represent a basis of (R/I)_k.  nf maps a
    coefficient vector in R_k to its normal-form coordinates.
    """

    k: int
    monomial_indices: tuple[int, ...]
    nf: DenseMatrix


def _quotient_piece(x: "ACMVarietyDescriptor", k: int) -> QuotientPiece:
    nk = basis_dim(x.n, k)
    # I_k is spanned by u * f for each form f and each monomial u of degree
    # k - deg f; row u of a block holds the coefficients of u * f
    blocks = [np.zeros((0, nk), dtype=np.int64)]
    for e_deg, coeff in zip(x.degrees, x.forms):
        table = _product_table(x.n, k - e_deg, e_deg)
        block = np.zeros((table.shape[0], nk), dtype=np.int64)
        block[np.arange(table.shape[0])[:, None], table] = coeff
        blocks.append(block)
    data = np.vstack(blocks)
    span = DenseMatrix(data.shape[0], nk, x.field, data)
    # row j of the transposed kernel basis is the normal form map's row for
    # free column f_j: a 1 at f_j, minus the echelon entries at the pivot
    # columns (all before f_j), so f_j is its last nonzero position
    nf = transpose(kernel_basis(span))
    free = tuple(int(np.flatnonzero(row)[-1]) for row in nf.data)
    expected = hilbert_function(x.res, k)
    if len(free) != expected:
        raise RegularityError(
            f"degree {k}: quotient dimension {len(free)} != {expected} predicted "
            "by the resolution data; the chosen forms are not a regular sequence"
        )
    return QuotientPiece(k, free, nf)


def quotient_piece(x: "ACMVarietyDescriptor", k: int) -> QuotientPiece:
    """Cached degree-k normal-form data for a variety with explicit forms."""
    cache = x._nf_cache
    if k not in cache:
        cache[k] = _quotient_piece(x, k)
    return cache[k]


def mult_map(
    phi: "LinearFormMatrix", m: int, x: "ACMVarietyDescriptor | None" = None
) -> DenseMatrix:
    """Matrix of (R_X)_m^b_src -> (R_X)_(m+1)^a_tgt induced by phi.

    X is P^n when x is None or has codimension 0.  Bases are the surviving
    monomials of each degree (all of them on P^n) in the fixed order;
    blocks are stacked row-major, block (i, j) multiplying by the linear
    form phi[i][j] and reducing to normal form.  m < 0 gives a matrix with
    zero columns.
    """
    n, p = phi.n, phi.field.p
    if x is not None:
        if x.forms is None:
            from .restriction import ExactModeError

            raise ExactModeError("variety has no explicit forms; exact mode unavailable")
        if phi.n != x.n or phi.field != x.field:
            raise ValueError("phi and variety live over different ambient data")
    coeffs = phi.coeffs % p
    a, b = phi.a_tgt, phi.b_src
    shifts = _product_table(n, m, 1)
    if x is None or x.codim == 0:
        src, tgt = shifts.shape[0], basis_dim(n, m + 1)
        out = np.zeros((a, tgt, b, src), dtype=np.int64)
        # advanced indices on axes 1 and 3 put u first: (src, a, b) <- Phi_k
        for k in range(n + 1):
            out[:, shifts[:, k], :, np.arange(src)] = coeffs[:, :, k]
    else:
        keep = np.asarray(quotient_piece(x, m).monomial_indices, dtype=np.intp)
        src = keep.size
        nf = quotient_piece(x, m + 1).nf.data
        tgt = nf.shape[0]
        # out before the temporaries: allocated after them, it measurably
        # raised peak RSS, as freeing them left a hole in the heap
        out = np.empty((a, tgt, b, src), dtype=np.int64)
        # g[k, (r, u)] = N_(m+1)[r, S_k(u)]
        g = nf[:, shifts[keep].T].transpose(1, 0, 2).astype(np.float64)
        g = g.reshape(n + 1, tgt * src)
        neg = (-coeffs % p).astype(np.float64).reshape(a * b, n + 1)
        # blocks of one a-th of the target monomials each split g's columns
        # into limbs once; each is freed before the next, which keeps RSS low
        for i in range(a):
            r0, r1 = tgt * i // a, tgt * (i + 1) // a
            block = np.zeros((a * b, (r1 - r0) * src))
            _sub_mul_mod(block, neg, g[:, r0 * src : r1 * src], p)
            out[:, r0:r1] = block.reshape(a, b, r1 - r0, src).transpose(0, 2, 1, 3)
            del block
    rows, cols = a * tgt, b * src
    return DenseMatrix(rows, cols, phi.field, out.reshape(rows, cols))


def map_rank(
    phi: "LinearFormMatrix", m: int, x: "ACMVarietyDescriptor | None" = None
) -> int:
    """Rank of mult_map(phi, m, x), on P^n by the Schur complement above,
    ranked through the left kernel L of its first block: a N_m unit pivots,
    |R_0| - delta from the first block and the rank of the delta-row chain."""
    n, p, a, b = phi.n, phi.field.p, phi.a_tgt, phi.b_src
    coeffs = phi.coeffs % p
    ambient = (x is None or x.codim == 0) and 0 < a <= b and m >= 0
    for k in range(n, -1, -1) if ambient else ():
        # [Phi_k | I] reduces to [rref Phi_k | Phi_k[:, J]^-1] when rank Phi_k = a
        aug = np.hstack((coeffs[:, :, k], np.eye(a, dtype=np.int64)))
        red, piv = rref(DenseMatrix(a, b + a, phi.field, aug))
        if piv[-1] < b:
            break
    else:  # on X, for a > b, or with no such Phi_k
        return rank(mult_map(phi, m, x))
    # G = [R | K] with Phi_k R = I, R on the pivot rows J, and Phi_k K = 0
    g = np.zeros((b, b), dtype=np.int64)
    g[list(piv), :a] = red.data[:, b:]
    g[:, a:] = kernel_basis(DenseMatrix(a, b, phi.field, coeffs[:, :, k])).data
    # phi' = phi G, as -(phi (-G)), for every Phi_l at once
    flat = np.zeros(((n + 1) * a, b))
    stacked = coeffs.transpose(2, 0, 1).reshape(-1, b).astype(np.float64)
    _sub_mul_mod(flat, stacked, (-g % p).astype(np.float64), p)
    coeffs = flat.astype(np.int64).reshape(n + 1, a, b).transpose(1, 2, 0)
    mp = mult_map(replace(phi, coeffs=coeffs), m, x).data
    src, tgt = basis_dim(n, m), basis_dim(n, m + 1)
    us = [np.flatnonzero(np.array(_monomials(n, m))[:, k] == e) for e in range(m + 1)]
    shift, copies = _product_table(n, m, 1)[:, k], np.arange(b)[:, None]
    # columns Q_e then P_e (copies a..b-1, then 0..a-1), and rows R_(e+1)
    # listed as x_k P_e, so that M'[R_(e+1), P_e] = I
    cols = [(np.roll(copies, -a) * src + u).ravel() for u in us]
    rows = [(copies[:a] * tgt + shift[u]).ravel() for u in us]
    r0 = (copies[:a] * tgt + np.flatnonzero(np.array(_monomials(n, m + 1))[:, k] == 0)).ravel()
    q = (b - a) * us[0].size
    # L, the canonical left kernel of S_Q0 = M'[R_0, Q_0], has delta rows
    s_q0 = DenseMatrix(r0.size, q, phi.field, mp[np.ix_(r0, cols[0][:q])])
    left = kernel_basis(transpose(s_q0)).data.T
    delta = left.shape[0]
    known = a * src + r0.size - delta
    if not delta or not m:
        return known
    block = np.zeros((delta, cols[0].size - q))  # L W_0
    w = mp[np.ix_(r0, cols[0][q:])].astype(np.float64)
    _sub_mul_mod(block, (-left % p).astype(np.float64), w, p)
    parts = []
    for e in range(m):  # [L S_Q(e+1) | L W_(e+1)] = -L W_e M'[R_(e+1), Q_(e+1) P_(e+1)]
        w, block = block, np.zeros((delta, cols[e + 1].size))
        _sub_mul_mod(block, w, mp[np.ix_(rows[e], cols[e + 1])].astype(np.float64), p)
        q = (b - a) * us[e + 1].size
        parts.append(block[:, :q])
        block = block[:, q:]
    s = np.hstack(parts).astype(np.int64)
    return known + rank(DenseMatrix(*s.shape, phi.field, s))
