"""Graded pieces of polynomial rings and their multiplication maps.

Monomial bases of R_d = K[x_0..x_n]_d are enumerated once, in graded
reverse lexicographic order with x_0 > x_1 > ... > x_n, and that order is
fixed forever: matrix columns, kernel bases and serialized reports all
refer to it.

A complete intersection is described by its degrees alone: the twists of
its Koszul resolution are the sums of sub-multisets of the degrees, and
its Hilbert function is the alternating sum over them.

An a x b matrix of degree-e forms, an (a, b, C(n+e, n)) coefficient
tensor, induces in each degree m a linear map R_m^b -> R_(m+e)^a on P^n.
With Phi_w its coefficients of the w-th degree-e monomial v_w and S_w the
table of multiplication by v_w, the targets v_w u of one source monomial u
are distinct, so every entry is a single coefficient,

    M[(i, S_w(u)), (j, u)] = Phi_w[i, j],

and mult_map writes M by one scatter with no sum.  It is the only map
builder: a matrix phi of linear forms is the case e = 1, with Phi_k the
coefficients of x_k, and the span of I_k is the map of each form f, a
1 x 1 matrix, in degree k - deg f.

On a complete intersection X cut by f_1..f_c the map
(R_X)_m^b -> (R_X)_(m+1)^a is never built: by right exactness its
cokernel is that of [phi | f_1 I_a | ... | f_c I_a] over R, so with F the
span of I_(m+1) placed in each of the a target copies,

    rank M_X = rank [M | F] - a dim I_(m+1),

where F is empty when I_(m+1) = 0.  The lift can add rank only when M is
short of a N_(m+1) and F has columns, so only then is it built; otherwise
rank [M | F] is the rank of M.  The identity needs f_1..f_c to be a
regular sequence, and one certificate proves that for every degree.
Setting x_c..x_n to 0 leaves forms fbar_i in K[x_0..x_(c-1)].  When their
products span all of degree D = sum (d_i - 1) + 1, the quotient by them is
Artinian, so fbar is a system of parameters of that polynomial ring, hence
regular.  Then x_c..x_n, f_1..f_c is regular in R, and homogeneous regular
sequences permute, so f_1..f_c is regular (Eisenbud, Commutative Algebra,
GTM 150, ch. 17), and dim I_k = N_k - H_X(k) in every degree k with no
rank.  A special slice, about deg / p of the time, fails this; then, and
in the degrees whose span is smaller than the slice's matrix, dim I_k is
the rank of the span, compared with the Koszul data in that degree.

map_rank ranks a map on P^n with a <= b by the pivot split of Faugere and
Lachartre.  For a Phi_k of full row rank a, x_n tried first, one
elimination takes [Phi_k^T | I] to [E Phi_k^T | E] with E Phi_k^T = [I | 0]^T,
and the source basis change G = E^T keeps the rank and gives
Phi'_k = [I | 0] in phi' = phi G.  Graded by the exponent e of x_k,
the targets of M' = mult_map(phi', m) split into R_0..R_(m+1), the sources
of the first a copies into P_e and the others into Q_e.  x_k maps P_e onto
R_(e+1), so B = M'[R_(>=1), P] is I plus the blocks N_e = M'[R_(e+1),
P_(e+1)]: a N_m pivots with no search.  The rest is the rank of the Schur
complement S on R_0, with Q_0 block S_Q0 = M'[R_0, Q_0] and Q_(e+1) block
S_Q(e+1) = -W_e M'[R_(e+1), Q_(e+1)], for W_0 = M'[R_0, P_0] and W_(e+1) =
-W_e N_e.

None of this split depends on m: the pick of k, G and phi G are made once
per phi, one level at a time, by _split_tower, and every twist reads that
tower.  A phi with a > b, such as the transpose of a kernel-bundle phi,
is its dense base and takes no elimination to split.

M' itself is never built: its blocks are maps on the hyperplane x_k = 0.
The x_k-free monomials of _monomials(n, d) come in _monomials(n - 1, d)
order, and so do those with x_k-exponent e once divided by x_k^e.  So for
phi_h, phi' with its copies rolled by -a (Q before P) and without the
coefficients of x_k, a map on P^(n - 1),

    mult_map(phi_h, m) = [S_Q0 | W_0],
    mult_map(phi_h, m - e - 1) = M'[R_(e+1), Q_(e+1) P_(e+1)],

with R_(e+1) listed as x_k P_e.  In particular S_Q0 is the map of phi'',
the first b - a copies of phi_h, so it is ranked by the same split one
dimension down.  That call also returns L_0, delta x |R_0|, a basis of
the left kernel of S_Q0.  An invertible row transform whose last rows are
L_0 turns S into [[A, *], [0, L_0 S_Q(>=1)]] with A of full row rank
|R_0| - delta, so

    rank S = |R_0| - delta + rank L_0 [S_Q1 | ... | S_Qm],

and the chain carries the delta rows -L_0 W_e instead of W_e: -L_0 W_0
and -[L_0 S_Q(e+1) | L_0 W_(e+1)] = L_0 W_e M'[R_(e+1), Q_(e+1) P_(e+1)],
so it ranks -L_0 S_Q(>=1), which has the rank and left kernel of L_0
S_Q(>=1), and L_0 itself is the first product's left factor.  At most
twists of the ambient tables delta = 0, and then nothing is multiplied
after phi G at any level.

The left kernel that the level above needs comes from the same chain.  A
row y = [y_0 | y_(>=1)] has y M' = 0 exactly when y_0 S = 0 and y_(>=1) =
-y_0 M'[R_0, P] B^-1, whose block on R_(e+1) is -y_0 W_e.  The left kernel
of S is u L_0 for u a basis of the left kernel of L_0 S_Q(>=1), so the
left kernel of the map is spanned by the rows

    u [L_0 | -L_0 W_0 | ... | -L_0 W_m]

on R_0, R_1, ..., R_(m+1), put back in the map's own row order.  One
product of u with [L_0 | the chain] gives their negatives, which span the
same kernel.  When u has no rows the left kernel is empty, and the level
ends with no lift.  The recursion stops at P^0, where R_0 is empty; at
b = a, where S_Q0 has no columns and L_0 = I; and at a > b or with no
such Phi_k, where the map itself is eliminated, and its left kernel, when
asked for, is kernel_basis of its transpose.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .exactfield import FieldSpec, _sub_mul_mod, kernel_basis, rank, rref

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


@lru_cache(maxsize=None)
def _exponents(n: int, d: int) -> np.ndarray:
    """The exponent vectors of _monomials(n, d), one row per monomial."""
    table = np.array(_monomials(n, d), dtype=np.intp).reshape(-1, n + 1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def koszul_twists(degrees: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Twists of the Koszul resolution of a complete intersection.

    Entry i - 1 lists, sorted, the twists of the i-th free module: the sum
    of each i-element sub-multiset of the degrees.  P^n, with no degrees,
    has none.
    """
    for e in degrees:
        if e < 1:
            raise ValueError(f"complete intersection degree {e} < 1")
    return tuple(
        tuple(sorted(sum(sub) for sub in combinations(degrees, i)))
        for i in range(1, len(degrees) + 1)
    )


def _koszul_sum(binomial, n: int, degrees: tuple[int, ...], k: int) -> int:
    # binomial(n, k) + sum_i (-1)^i sum_j binomial(n, k - n_j^i) over the twists
    total = binomial(n, k)
    for i, twists in enumerate(koszul_twists(degrees), start=1):
        sign = -1 if i % 2 == 1 else 1
        for t in twists:
            total += sign * binomial(n, k - t)
    return total


def hilbert_function(n: int, degrees: tuple[int, ...], k: int) -> int:
    """dim (R/I)_k for the complete intersection of the degrees in P^n.

    Alternating sum C(n+k, n) - sum_i (-1)^(i+1) sum_j C(n+k-n_j^i, n)
    over the Koszul twists, with C(m, n) = 0 for m < n.
    """
    return _koszul_sum(basis_dim, n, degrees, k)


def hilbert_polynomial(n: int, degrees: tuple[int, ...], k: int) -> int:
    """Hilbert polynomial value at k: same sum with signed binomials.

    For an arithmetically Cohen-Macaulay quotient this equals the sheaf
    Euler characteristic chi(O_X(k)) at every integer k.
    """
    return _koszul_sum(chi_binom, n, degrees, k)


class RegularityError(RuntimeError):
    """Quotient ring dimensions disagree with the Koszul data of the degrees."""


def mult_map(coeffs: np.ndarray, n: int, m: int, e: int) -> np.ndarray:
    """Matrix of R_m^b -> R_(m+e)^a on P^n induced by an (a, b, C(n+e, n))
    tensor of degree-e forms with entries in [0, p).

    Bases are the monomials of each degree in the fixed order; blocks are
    stacked row-major, block (i, j) multiplying by the form coeffs[i, j].
    m < 0 gives a matrix with zero columns.
    """
    a, b, _ = coeffs.shape
    shifts = _product_table(n, m, e)
    src, tgt = shifts.shape[0], basis_dim(n, m + e)
    out = np.zeros((a, tgt, b, src), dtype=np.int64)
    # advanced indices on axes 1 and 3 put (u, w) first: (src, W, a, b) <- Phi_w
    out[:, shifts, :, np.arange(src)[:, None]] = coeffs.transpose(2, 0, 1)
    return out.reshape(a * tgt, b * src)


def _products(n: int, degrees: tuple[int, ...], forms, k: int) -> np.ndarray:
    # I_k is spanned by u * f for each form f and each monomial u of degree
    # k - deg f: the columns of the map of f in degree k - deg f
    return np.hstack([np.zeros((basis_dim(n, k), 0), dtype=np.int64)] + [
        mult_map(coeff[None, None], n, k - e, e) for e, coeff in zip(degrees, forms)
    ])


def _products_cells(n: int, degrees: tuple[int, ...], k: int) -> int:
    return basis_dim(n, k) * sum(basis_dim(n, k - e) for e in degrees)


def _slice_spans(degrees: tuple[int, ...], field: FieldSpec, forms) -> bool:
    # the forms fbar_i in c variables span all of degree D = sum (d_i - 1) + 1;
    # the x_c..x_n-free monomials of degree e lead _monomials(n, e), in
    # _monomials(c - 1, e) order, so fbar_i is a prefix of f_i
    c = len(degrees)
    top = sum(degrees) - c + 1
    cut = [coeff[: basis_dim(c - 1, e)] for e, coeff in zip(degrees, forms)]
    return rank(_products(c - 1, degrees, cut, top).T, field) == basis_dim(c - 1, top)


def _regular_by_slice(x: "ACMVarietyDescriptor", k: int) -> bool:
    """True when the coordinate slice proves the forms a regular sequence.

    The slice is tried only when its matrix has no more cells than the span
    of I_k, so asking never allocates more than ranking that span would.
    The verdict is x.slice_regular, made once per variety.
    """
    c = x.codim
    if _products_cells(c - 1, x.degrees, sum(x.degrees) - c + 1) > _products_cells(x.n, x.degrees, k):
        return False
    return x.slice_regular


def ideal_dim(x: "ACMVarietyDescriptor", k: int) -> int:
    """dim I_k.

    It is N_k - H_X(k), with no span built, when the coordinate slice
    proves the forms regular.  Otherwise it is the rank of the span, and
    RegularityError is raised unless R_k / I_k has the dimension that the
    Koszul Hilbert function of the degrees predicts: the forms are then not
    a regular sequence.
    """
    nk, expected = basis_dim(x.n, k), hilbert_function(x.n, x.degrees, k)
    if _regular_by_slice(x, k):
        return nk - expected
    # ranked by its products, usually fewer than the monomials
    dim = rank(_products(x.n, x.degrees, x.forms, k).T, x.field)
    if nk - dim != expected:
        raise RegularityError(
            f"degree {k}: quotient dimension {nk - dim} != {expected} predicted "
            "by the Koszul Hilbert function of the degrees; the chosen forms "
            "are not a regular sequence"
        )
    return dim


def _split_tower(coeffs: np.ndarray, field: FieldSpec) -> tuple:
    """The pivot split of an (a, b, n + 1) coefficient tensor in [0, p), one
    (tensor, k, phi_h) entry per level of the recursion onto the hyperplane.

    k is None at the dense base, where a > b or no Phi_k has full row rank
    a; phi_h is None on P^0.  The next level's tensor is phi'', the first
    b - a copies of phi_h, and the descent stops after a level with b = a.
    Nothing here depends on the degree, so one tower serves every twist.
    """
    a, b, n1 = coeffs.shape
    p = field.p
    for k in range(n1 - 1, -1, -1) if 0 < a <= b else ():
        # [Phi_k^T | I] reduces to [[I | 0]^T | G^T] when rank Phi_k = a
        aug = np.hstack((coeffs[:, :, k].T, np.eye(b, dtype=np.int64)))
        red, piv = rref(aug, field)
        if piv[a - 1] < a:
            break
    else:  # for a > b or with no such Phi_k
        return ((coeffs, None, None),)
    if n1 == 1:
        return ((coeffs, k, None),)
    # phi' = phi G, as -(phi (-G)), for every Phi_l at once
    flat = np.zeros((n1 * a, b))
    stacked = coeffs.transpose(2, 0, 1).reshape(-1, b).astype(np.float64)
    _sub_mul_mod(flat, stacked, (-red[:, a:].T % p).astype(np.float64), p)
    turned = flat.astype(np.int64).reshape(n1, a, b).transpose(1, 2, 0)
    # phi_h: the Q copies first, then P, without the coefficients of x_k;
    # its first b - a copies are phi'', whose map is S_Q0
    hyper = np.delete(np.roll(turned, -a, axis=1), k, axis=2)
    level = ((coeffs, k, hyper),)
    return level + _split_tower(hyper[:, : b - a], field) if b > a else level


def _hyperplane_rank(
    tower: tuple, m: int, field: FieldSpec, left: bool
) -> tuple[int, np.ndarray | None]:
    """Rank of the map of tower[0]'s tensor on P^n in degree m >= 0 and,
    with left, a basis of its left kernel: one float64 row with entries in
    [0, p) per missing rank, indexed like the map's rows.  The tower is
    _split_tower's, so the pick of k and phi G are not redone here."""
    coeffs, k, hyper = tower[0]
    a, b, n1 = coeffs.shape
    p = field.p
    rows = a * basis_dim(n1 - 1, m + 1)
    if k is None:
        mat = mult_map(coeffs, n1 - 1, m, 1)
        if not left:
            return rank(mat, field), None
        ker = kernel_basis(mat.T, field).T.astype(np.float64)
        return rows - ker.shape[0], ker
    known = a * basis_dim(n1 - 1, m)  # the unit pivots
    r0 = a * basis_dim(n1 - 2, m + 1)  # |R_0|, which is empty on P^0
    if not r0 or not (left or b > a):
        # on P^0 the unit pivots fill every row; at b = a Phi_k is
        # invertible, so they fill every column
        return known, np.zeros((0, rows)) if left else None
    if b > a:
        r, l0 = _hyperplane_rank(tower[1:], m, field, left or m > 0)
    else:  # S_Q0 has no columns, so its left kernel is the identity
        r, l0 = 0, np.eye(r0)
    delta = r0 - r
    if not delta or not (left or (m and b > a)):
        return known + r, np.zeros((0, rows)) if left else None
    # the chain on the delta rows of L_0, negated: -L_0 W_0, then
    # -[L_0 S_Q(e+1) | L_0 W_(e+1)] = L_0 W_e M'[R_(e+1), Q_(e+1) P_(e+1)]
    w = np.zeros((delta, a * basis_dim(n1 - 2, m)))
    _sub_mul_mod(w, l0, mult_map(hyper[:, b - a :], n1 - 2, m, 1).astype(np.float64), p)
    chain, parts = [w], []
    for e in range(m):
        nxt = mult_map(hyper, n1 - 2, m - e - 1, 1)
        w = np.zeros((delta, nxt.shape[1]))
        _sub_mul_mod(w, chain[-1], nxt.astype(np.float64), p)
        q = (b - a) * basis_dim(n1 - 2, m - e - 1)
        parts.append(w[:, :q])
        chain.append(w[:, q:])
    s = np.hstack([np.zeros((delta, 0))] + parts)
    if not left:
        return known + r + rank(s, field), None
    # leftker S = u L_0 for u a basis of leftker(L_0 S_rest), which s, its
    # negative, shares; leftker M is spanned by -u [L_0 | -L_0 W_0 | ... |
    # -L_0 W_m] on R_0, R_1, ..., R_(m+1), with R_(e+1) listed as x_k P_e
    u = kernel_basis(s.T, field).T.astype(np.float64)
    if not u.shape[0]:
        return rows, np.zeros((0, rows))
    lifted = np.zeros((u.shape[0], rows))
    _sub_mul_mod(lifted, u, np.hstack([l0] + chain), p)
    # R_e lists the target rows whose monomial has x_k-exponent e, in order
    exponent = _exponents(n1 - 1, m + 1)[:, k]
    ker = np.empty_like(lifted)
    ker[:, np.argsort(np.tile(exponent, a), kind="stable")] = lifted
    return rows - u.shape[0], ker


def map_rank(
    phi: "LinearFormMatrix", m: int, x: "ACMVarietyDescriptor | None" = None
) -> int:
    """Rank of phi's map (R_X)_m^b_src -> (R_X)_(m+1)^a_tgt, X = P^n when x
    is None or has codimension 0.

    On P^n the rank is a N_m unit pivots plus rank S, and rank S is
    rank S_Q0, a map_rank of phi'' one dimension down, plus the rank of the
    chain on the left kernel of S_Q0 that the same recursion returns.  The
    split of every level is phi.tower, made at the first rank of phi and
    read by every later one, so no twist redoes the basis change, and each
    P^n rank is kept in phi.ranks, so a degree ranked once is read back.  On
    X the rank is rank [M | F] - a dim I_(m+1), with the lift [M | F]
    eliminated only when the P^n map M is not onto and I_(m+1) is not 0;
    otherwise its rank is that of M.  By the lift identity this is the
    exact rank of the map on X, which is never built, so the cells it fills
    are "exact-rank".
    """
    n, p, a = phi.n, phi.field.p, phi.a_tgt
    if x is not None and (n != x.n or phi.field != x.field):
        raise ValueError("phi and variety live over different ambient data")
    if m < 0:  # the source R_m is zero
        return 0
    if x is None or not x.codim:
        ranks = phi.ranks
        if m not in ranks:
            ranks[m] = _hyperplane_rank(phi.tower, m, phi.field, False)[0]
        return ranks[m]
    r = map_rank(phi, m)
    if r < a * basis_dim(n, m + 1) and _products_cells(n, x.degrees, m + 1):
        # not onto, and F, the span of I_(m+1) in each of the a target
        # copies, has columns: rank the lift [M | F]
        span = _products(n, x.degrees, x.forms, m + 1)
        lift = np.hstack((mult_map(phi.coeffs % p, n, m, 1), np.kron(np.eye(a, dtype=np.int64), span)))
        r = rank(lift, phi.field)
    return r - a * ideal_dim(x, m + 1)
