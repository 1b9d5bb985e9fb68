"""Exact linear algebra: ranks, kernels, canonical reduced forms, rng."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wildrep import (
    DEFAULT_PRIME,
    FieldSpec,
    SamplingError,
    SeededRng,
    rank,
    random_field_elements,
)
from wildrep import exactfield
from wildrep.exactfield import _limb_plan, _reduce, _single_gemm_max, _sub_mul_mod, left_kernel
from oracles import from_rows, kernel_basis, nullity, rref, splitmix64_mod


def _product_mod_p(a, b, p):
    """Exact a @ b mod p with Python ints, which cannot overflow."""
    rows = [[int(v) for v in row] for row in a]
    cols = [[int(v) for v in col] for col in b.T]
    return [[sum(x * y for x, y in zip(r, c)) % p for c in cols] for r in rows]


def _bareiss_rank(rows):
    """Rank over the rationals of an integer matrix, fraction-free Bareiss."""
    a = [list(map(int, r)) for r in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    r, prev = 0, 1
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


def _gauss_jordan(rows, ncols, p):
    """Reduced row echelon form mod p with Python ints, and pivot columns."""
    a = [[v % p for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(c)
    return a, tuple(pivots)


def _reference_kernel(red, pivots, ncols, p):
    """Kernel basis read off a reduced echelon form, as a list of rows."""
    free = [f for f in range(ncols) if f not in pivots]
    basis = [[0] * len(free) for _ in range(ncols)]
    for j, f in enumerate(free):
        basis[f][j] = 1
        for i, c in enumerate(pivots):
            basis[c][j] = -red[i][f] % p
    return basis


def test_default_prime():
    assert DEFAULT_PRIME == 32003


def test_field_spec_rejects_composite():
    with pytest.raises(ValueError):
        FieldSpec.prime(32004)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)


def test_field_spec_prime_size_bound():
    # products must stay below 2^62, so p < 2^31; the Mersenne prime
    # 2^31 - 1 squeaks in but the next prime up does not
    assert FieldSpec.prime((1 << 31) - 1).p == (1 << 31) - 1
    with pytest.raises(ValueError):
        FieldSpec.prime((1 << 31) + 11)


def test_rank_identity_and_zero(fp):
    assert rank(np.eye(5, dtype=np.int64), fp) == 5
    assert rank(np.zeros((3, 7), dtype=np.int64), fp) == 0
    assert nullity(np.zeros((3, 7), dtype=np.int64), fp) == 7


def test_rank_singular_3x3(fp):
    m = from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]], fp)
    assert rank(m, fp) == 2
    assert nullity(m, fp) == 1


def test_rref_canonical_pivots(fp):
    m = from_rows([[0, 2, 4], [1, 1, 1]], fp)
    r, pivots = rref(m, fp)
    assert pivots == (0, 1)
    assert r.tolist() == [[1, 0, fp.p - 1], [0, 1, 2]]


def test_rref_idempotent(fp):
    m = from_rows([[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]], fp)
    r1, p1 = rref(m, fp)
    r2, p2 = rref(r1, fp)
    assert p1 == p2
    assert np.array_equal(r1, r2)


def test_kernel_annihilates(fp):
    m = from_rows([[1, 2, 3], [4, 5, 6]], fp)
    k = kernel_basis(m, fp)
    assert k.shape == (3, 1)
    assert not any(any(row) for row in _product_mod_p(m, k, fp.p))


def test_kernel_of_full_rank_is_empty(fp):
    k = kernel_basis(np.eye(4, dtype=np.int64), fp)
    assert k.shape[1] == 0


def test_rational_field_rref(fp):
    # [[1/2, 1/3], [1/4, 1/6]] scaled by 12: rank 1 over Q, and the
    # rational RREF row (1, 2/3) reduces to (1, 2 * 3^-1) mod p
    rows = [[6, 4], [3, 2]]
    m = from_rows(rows, fp)
    assert rank(m, fp) == _bareiss_rank(rows) == 1
    r, pivots = rref(m, fp)
    assert pivots == (0,)
    assert r[0, 0] == 1
    assert r[0, 1] == 2 * pow(3, -1, fp.p) % fp.p


def test_rank_agrees_mod_p_and_rationals():
    # integer matrices with small entries: rank over Q equals rank mod a
    # large prime unless p divides a pivot minor, which small entries avoid
    p = FieldSpec.prime()
    rows_list = [
        [[1, 2], [2, 4]],
        [[1, 0, 2], [0, 1, 3], [1, 1, 5]],
        [[2, 3, 5], [7, 11, 13], [1, 0, 0], [0, 0, 1]],
        [[0, 0], [0, 0]],
    ]
    for rows in rows_list:
        assert rank(from_rows(rows, p), p) == _bareiss_rank(rows)


small_entries = st.integers(min_value=0, max_value=DEFAULT_PRIME - 1)
DEFAULT_FIELD = FieldSpec.prime()


@st.composite
def random_matrix(draw):
    r = draw(st.integers(min_value=1, max_value=6))
    c = draw(st.integers(min_value=1, max_value=6))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
    return from_rows(rows, DEFAULT_FIELD)


@settings(max_examples=60, deadline=None)
@given(random_matrix())
def test_rank_transpose_invariant(m):
    assert rank(m, DEFAULT_FIELD) == rank(m.T, DEFAULT_FIELD)


@settings(max_examples=60, deadline=None)
@given(random_matrix())
def test_rank_nullity(m):
    assert rank(m, DEFAULT_FIELD) + nullity(m, DEFAULT_FIELD) == m.shape[1]


@settings(max_examples=60, deadline=None)
@given(random_matrix())
def test_kernel_columns_lie_in_kernel(m):
    k = kernel_basis(m, DEFAULT_FIELD)
    assert k.shape[1] == nullity(m, DEFAULT_FIELD)
    if k.shape[1]:
        assert not any(any(row) for row in _product_mod_p(m, k, DEFAULT_PRIME))
        # canonical form: the free-column rows form an identity block
        assert rank(k, DEFAULT_FIELD) == k.shape[1]


@settings(max_examples=40, deadline=None)
@given(random_matrix())
def test_rref_pivot_columns_are_unit(m):
    r, pivots = rref(m, DEFAULT_FIELD)
    for j, c in enumerate(pivots):
        col = r[:, c]
        assert col[j] == 1
        assert not np.any(col[np.arange(r.shape[0]) != j])


ORACLE_PRIMES = (2, 3, 101, 32003, (1 << 31) - 1)


@st.composite
def matrix_with_rows(draw):
    """Up to 8 x 8, empty shapes included; some rows are multiples of
    earlier rows, which forces rank deficiency at every prime."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    nrows = draw(st.integers(min_value=0, max_value=8))
    ncols = draw(st.integers(min_value=0, max_value=8))
    entry = st.integers(min_value=0, max_value=p - 1)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            j = draw(st.integers(min_value=0, max_value=i - 1))
            k = draw(st.integers(min_value=1, max_value=p - 1))
            rows[i] = [v * k % p for v in rows[j]]
    data = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
    return rows, FieldSpec.prime(p), data


@settings(max_examples=300, deadline=None)
@given(matrix_with_rows())
def test_elimination_matches_gauss_jordan_reference(case):
    rows, f, m = case
    p, cols = f.p, m.shape[1]
    red, pivots = _gauss_jordan(rows, cols, p)
    assert rank(m, f) == len(pivots)
    r, piv = rref(m, f)
    assert piv == pivots
    assert r.tolist() == red
    k = kernel_basis(m, f)
    assert k.shape == (cols, cols - len(pivots))
    assert k.tolist() == _reference_kernel(red, pivots, cols, p)
    assert m.tolist() == rows  # the input is left untouched


# the top half of a full-rank 96-row matrix has 48 pivots, so the first
# product of the recursion has inner dimension 48; below P_FLOAT it is one
# float64 gemm, from P_LIMBS on its left factor is split into two limbs
INNER = 48
P_FLOAT, P_LIMBS = 13698533, 13698577
DIFF_PRIMES = (2, 3, 101, 32003, 65537, P_FLOAT, P_LIMBS, (1 << 31) - 1)


def _random_rows(rng, p, nrows, ncols, fresh):
    """Rows of entries in [0, p); each row after the first is, with
    probability 1 - fresh, a random combination of up to three earlier
    rows, possibly all zero."""
    rows = rng.integers(0, p, size=(nrows, ncols)).tolist()
    for i in range(1, nrows):
        if rng.random() >= fresh:
            picks = rng.integers(0, i, size=3).tolist()
            coeffs = rng.integers(0, p, size=3).tolist()
            rows[i] = [
                sum(k * rows[j][c] for j, k in zip(picks, coeffs)) % p
                for c in range(ncols)
            ]
    return rows


# (rows, cols, share of fresh rows, None for the zero matrix); every block
# taller than 32 rows is split, so all but the first three shapes reach
# the recursion
DIFF_SHAPES = (
    (0, 9, 1.0),
    (9, 0, 1.0),
    (1, 300, 1.0),
    (300, 1, 0.5),
    (150, 200, None),
    (33, 40, 1.0),
    (65, 31, 1.0),
    (97, 60, 0.3),
    (2 * INNER, 60, 1.0),
    (201, 300, 0.06),
)


def _check_against_gauss_jordan(rows, nrows, ncols, p):
    m = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
    f = FieldSpec.prime(p)
    red, pivots = _gauss_jordan(rows, ncols, p)
    assert rank(m, f) == len(pivots)
    r, piv = rref(m, f)
    assert piv == pivots
    assert r.dtype == np.int64
    assert r.tolist() == red
    k = kernel_basis(m, f)
    assert k.dtype == np.int64
    assert k.tolist() == _reference_kernel(red, pivots, ncols, p)
    assert 0 <= k.min(initial=0) and k.max(initial=0) < p
    assert m.tolist() == rows  # the input is left untouched


@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_recursive_elimination_matches_gauss_jordan(p):
    assert _single_gemm_max(P_FLOAT) >= INNER > _single_gemm_max(P_LIMBS)
    rng = np.random.default_rng(p)
    for nrows, ncols, fresh in DIFF_SHAPES:
        if fresh is None:
            rows = [[0] * ncols for _ in range(nrows)]
        else:
            rows = _random_rows(rng, p, nrows, ncols, fresh)
        _check_against_gauss_jordan(rows, nrows, ncols, p)


# leaves of 1, 31 and 32 rows at widths around 128 and 160 columns, and
# wider
PANEL_COLS = (127, 128, 129, 159, 160, 161, 400)


def _panel_cases(rng, p):
    """(rows, ncols) cases for one prime, as lists of rows."""
    for nrows in (1, 31, 32):
        for ncols in PANEL_COLS:
            yield _random_rows(rng, p, nrows, ncols, 0.7), ncols
    # the first 256 columns are zero, so the leaf's row operations stay the
    # identity until column 256
    for nrows in (31, 32):
        tail = _random_rows(rng, p, nrows, 144, 0.7)
        yield [[0] * 256 + row for row in tail], 400
    # every row has a pivot by column 31 or 151, so the walk stops early and
    # the rest of the columns come from the leaf's final product
    for lead in (0, 120):
        tail = _random_rows(rng, p, 32, 400 - lead, 1.0)
        yield [[0] * lead + row for row in tail], 400
    # rows run out early: 12 independent rows, then 20 combinations of them
    rows = _random_rows(rng, p, 12, 300, 1.0)
    for coeffs in rng.integers(0, p, size=(20, 12)).tolist():
        rows.append([sum(k * row[c] for k, row in zip(coeffs, rows)) % p for c in range(300)])
    yield rows, 300
    # taller blocks: the recursion's top halves are themselves split, and
    # rank leaves its bottom halves in echelon form below top halves in
    # reduced echelon form
    yield _random_rows(rng, p, 130, 200, 0.15), 200
    yield _random_rows(rng, p, 70, 161, 0.4), 161


@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_panel_leaf_matches_gauss_jordan(p):
    rng = np.random.default_rng(p + 1)
    for rows, ncols in _panel_cases(rng, p):
        _check_against_gauss_jordan(rows, len(rows), ncols, p)


# a leaf's matvec runs whole in int64 while rows * (p-1)^2 < 2^63: at
# P_SPLIT a 31-row leaf does and a 32-row leaf splits the column into
# 16-bit limbs, at 2^31 - 1 both split it.  At P_LAZY _single_gemm_max(p)
# is 70, so blocks of 70 and 71 rows sit either side of the single-gemm
# bound counted in rows; every block clears its bottom half by the same
# reduced product, whose inner dimension, the top half's pivot count, is at
# most 35 here.
P_SPLIT, P_LAZY = 536870923, 11343469
LEAF_PRIMES = DIFF_PRIMES + (P_SPLIT, P_LAZY)


def _check_rref_against_gauss_jordan(rows, ncols, p):
    """rank, rref and pivots against the reference, for shapes too wide to
    compare kernel bases entry by entry."""
    m = np.array(rows, dtype=np.int64)
    f = FieldSpec.prime(p)
    red, pivots = _gauss_jordan(rows, ncols, p)
    assert rank(m, f) == len(pivots)
    r, piv = rref(m, f)
    assert piv == pivots
    assert r.tolist() == red
    assert m.tolist() == rows


@pytest.mark.parametrize("p", LEAF_PRIMES)
def test_leaf_of_row_multiples_matches_gauss_jordan(p):
    # after the first pivot every other row is zero on all 1500 live
    # columns, so the next column has no entry below the pivot row and one
    # product over the remaining columns ends the walk; with a fresh last
    # row, that product finds the column where it continues
    rng = np.random.default_rng(p + 3)
    base = rng.integers(1, p, size=1500) if p > 2 else np.ones(1500, dtype=np.int64)
    for nrows in (2, 31, 32):
        rows = [(base * int(k) % p).tolist() for k in rng.integers(1, p, size=nrows)]
        _check_rref_against_gauss_jordan(rows, 1500, p)
        rows[-1] = rng.integers(0, p, size=1500).tolist()
        _check_rref_against_gauss_jordan(rows, 1500, p)


@pytest.mark.parametrize("p", LEAF_PRIMES)
def test_leaf_skips_zero_columns(p):
    # leading zero columns, zero columns between live ones, and a leaf whose
    # only live column is its last: the walk visits live columns only
    rng = np.random.default_rng(p + 4)
    for nrows in (1, 31, 32):
        rows = _random_rows(rng, p, nrows, 200, 0.5)
        rows = [[0] * 100 + [0 if c % 3 else v for c, v in enumerate(row)] for row in rows]
        _check_against_gauss_jordan(rows, nrows, 300, p)
        rows = [[0] * 299 + [int(v)] for v in rng.integers(0, p, size=nrows)]
        _check_against_gauss_jordan(rows, nrows, 300, p)


@pytest.mark.parametrize("p", LEAF_PRIMES)
def test_leaf_matvec_either_side_of_int64(p):
    if p in (P_SPLIT, (1 << 31) - 1):
        assert 32 * (p - 1) ** 2 >= 1 << 63
        assert (31 * (p - 1) ** 2 < 1 << 63) == (p == P_SPLIT)
    rng = np.random.default_rng(p + 5)
    for nrows in (31, 32):
        _check_against_gauss_jordan(_random_rows(rng, p, nrows, 90, 0.7), nrows, 90, p)
        # every entry p - 1: the largest products the matvec can meet
        _check_against_gauss_jordan([[p - 1] * 90] * nrows, nrows, 90, p)


@pytest.mark.parametrize("p", LEAF_PRIMES)
def test_lazy_and_eager_clearing_match_gauss_jordan(p):
    if p == P_LAZY:
        assert _single_gemm_max(p) == 70
    rng = np.random.default_rng(p + 6)
    for nrows in (70, 71):
        h = nrows // 2
        _check_against_gauss_jordan(_random_rows(rng, p, nrows, 110, 1.0), nrows, 110, p)
        _check_against_gauss_jordan(_random_rows(rng, p, nrows, 110, 0.3), nrows, 110, p)
        # a reduced top [I | p-1] below which every entry is p - 1: the
        # clearing products are as large as they can be
        rows = [[int(c == i) for c in range(h)] + [p - 1] * 40 for i in range(h)]
        rows += [[p - 1] * (h + 40) for _ in range(nrows - h)]
        _check_against_gauss_jordan(rows, nrows, h + 40, p)


@pytest.mark.parametrize("p", [101, 32003, (1 << 31) - 1])
def test_unreduced_entries_match_their_reduced_copy(p):
    # a library caller can pass any int64; negative entries, nonnegative
    # ones at or above p, and ones many multiples of p away must give the
    # rank and rref of the reduced copy
    rng = np.random.default_rng(p + 2)
    f = FieldSpec.prime(p)
    reduced = rng.integers(0, p, size=(70, 161))
    reduced[40:] = reduced[:30] * 3 % p
    far = rng.integers(-(1 << 31), 1 << 31, size=reduced.shape) * p
    # integer-valued float64, as the pipeline passes its products, too
    floats = (reduced.astype(np.float64), -reduced.astype(np.float64))
    for data in (-reduced, reduced - p, reduced + p * (reduced % 2), reduced + far, *floats):
        canon = data % p
        m = data.copy()
        assert rank(m, f) == rank(canon, f) == 40
        (red, piv), (canon_red, canon_piv) = rref(m, f), rref(canon, f)
        assert piv == canon_piv and np.array_equal(red, canon_red)
        assert red.dtype == np.int64
        assert np.array_equal(kernel_basis(m, f), kernel_basis(canon, f))
        assert np.array_equal(m, data)  # the input is left untouched


@pytest.mark.parametrize("p", [101, 32003, P_LAZY, (1 << 31) - 1])
def test_every_block_the_elimination_reads_is_reduced(p, monkeypatch):
    # the recursion calls _echelon_mod through the module global, so the
    # wrapper sees every half and every leaf as well as the whole matrix
    echelon, heights = exactfield._echelon_mod, []

    def checked(a, q, reduced=True):
        heights.append(a.shape[0])
        assert a.dtype == np.float64 and q == p
        assert np.array_equal(a, np.floor(a)), a.shape
        assert 0 <= a.min(initial=0) and a.max(initial=0) < p, a.shape
        return echelon(a, q, reduced)

    monkeypatch.setattr(exactfield, "_echelon_mod", checked)
    rng = np.random.default_rng(p + 8)
    f = FieldSpec.prime(p)
    cases = [rng.integers(0, p, size=shape) for shape in ((130, 200), (71, 110), (70, 161))]
    cases.append(np.full((71, 110), p - 1))
    for m in cases:
        rank(m, f), rref(m, f), kernel_basis(m, f)
    assert min(heights) <= exactfield._LEAF_ROWS < 130 == max(heights)


@pytest.mark.parametrize("p", [32003, (1 << 31) - 1])
def test_transposed_view_matches_its_contiguous_copy(p):
    # a .T view is an F-ordered array: stabilizer_dimension passes one to
    # left_kernel, and a tall left kernel reduces its input's transpose.
    # With 90 rows the view recurses, and it must reduce like a C-ordered copy
    rng = np.random.default_rng(p + 7)
    f = FieldSpec.prime(p)
    a = np.array(_random_rows(rng, p, 60, 90, 0.5), dtype=np.int64)
    before = a.copy()
    view, copy = a.T, np.ascontiguousarray(a.T)
    assert view.shape == (90, 60) and not view.flags.c_contiguous
    assert rank(view, f) == rank(copy, f)
    (red, piv), (copy_red, copy_piv) = rref(view, f), rref(copy, f)
    assert piv == copy_piv and np.array_equal(red, copy_red)
    assert np.array_equal(kernel_basis(view, f), kernel_basis(copy, f))
    assert np.array_equal(a, before)  # the input is left untouched


# a left kernel is read off the leaf's transform up to _LEAF_ROWS rows and
# off the reduced echelon rows of the transpose above, where it must be the
# canonical kernel_basis of the transpose entry by entry; at P_SPLIT a
# 31-row leaf runs its matvec whole in int64 and a 32-row leaf against the
# limbs
LEFT_KERNEL_PRIMES = (2, 3, 101, 32003, P_SPLIT, P_LAZY, (1 << 31) - 1)


def _left_kernel_cases(rng, p):
    def product(x, y):
        return (x.astype(object) @ y.astype(object) % p).astype(np.int64)

    for rows in (0, 1, 31, 32, 33, 56):
        for cols in (0, 1, 20, 140):
            yield rng.integers(0, p, size=(rows, cols))
            yield np.zeros((rows, cols), dtype=np.int64)
        # duplicated rows, and a product of rank at most 7, also as the
        # float64 carrier the pipeline passes
        dup = rng.integers(0, p, size=(rows, 140))
        dup[rows // 2 :] = dup[: rows - rows // 2]
        yield dup
        low = product(rng.integers(0, p, size=(rows, 7)), rng.integers(0, p, size=(7, 140)))
        yield low
        yield low.astype(np.float64)
    # a non-contiguous .T view taller than a leaf, as stabilizer_dimension
    # passes
    yield rng.integers(0, p, size=(20, 40)).T


@pytest.mark.parametrize("p", LEFT_KERNEL_PRIMES)
def test_left_kernel_is_a_basis_of_the_left_kernel(p):
    f = FieldSpec.prime(p)
    rng = np.random.default_rng(p + 9)
    for a in _left_kernel_cases(rng, p):
        before = a.copy()
        y = left_kernel(a, f)
        r = rank(a, f)
        assert y.dtype == np.float64 and y.shape == (a.shape[0] - r, a.shape[0])
        assert np.array_equal(y, np.floor(y))
        assert 0 <= y.min(initial=0) and y.max(initial=0) < p
        ints = y.astype(np.int64)
        assert not (ints.astype(object) @ a.astype(np.int64).astype(object) % p).any()
        assert rank(ints, f) == y.shape[0]
        if a.shape[0] > exactfield._LEAF_ROWS:
            assert np.array_equal(y, kernel_basis(a.T, f).T)
        assert np.array_equal(a, before)  # the input is left untouched


def _sub_mul_reference(c, a, b, p):
    ci, ai, bi = (x.astype(np.int64).tolist() for x in (c, a, b))
    return [
        [(ci[i][j] - sum(x * y[j] for x, y in zip(ai[i], bi))) % p for j in range(len(ci[0]))]
        for i in range(len(ci))
    ]


def test_product_exact_at_single_gemm_bound():
    # all entries p - 1 at the largest inner dimension one float64 gemm may
    # take, and one past it, where two limbs take over; at P_FLOAT a single
    # gemm one term past the bound rounds, so a looser bound fails here
    p = P_FLOAT
    k_max = _single_gemm_max(p)
    assert k_max * (p - 1) ** 2 + p <= 1 << 53 < (k_max + 1) * (p - 1) ** 2 + p
    for k in (k_max, k_max + 1):
        a = np.full((2, k), p - 1.0)
        b = np.full((k, 3), p - 1.0)
        c = np.full((2, 3), p - 1.0)
        _sub_mul_mod(c, a, b, p)
        assert c.tolist() == [[(-1 - k) % p] * 3] * 2


@pytest.mark.parametrize(
    "p, z",
    [
        (2731, 385 * 2731),  # the float quotient falls just below 385
        (32003, -281448588904 * 32003 - 1),  # rounds up to -281448588904
    ],
)
def test_reduce_repairs_off_by_one_quotients(p, z):
    assert np.floor(z * (1.0 / p)) != z // p
    x = np.array([float(z)])
    _reduce(x, p)
    assert x.tolist() == [z % p]


@pytest.mark.parametrize("p", [2, 3, 101, 32003, P_LAZY, P_SPLIT, (1 << 31) - 1])
def test_reduce_floors_the_rounded_quotient_exactly(p):
    # for |z| + p <= 2^53 the floor of the correctly rounded z / p is
    # floor(z / p): at kp - 1, kp and kp + 1 for the largest k the bound
    # allows, at their negatives, and at |z| + p = 2^53 itself
    exact = 1 << 53
    zs = [exact - p]
    for j in (-1, 0, 1):
        k = (exact - p - j) // p
        zs += [k * p + j, p + j]
    zs += [-z for z in zs]
    assert all(abs(z) + p <= exact for z in zs)
    x = np.array(zs, dtype=np.float64)
    assert x.astype(np.int64).tolist() == zs
    assert np.floor(x / p).astype(np.int64).tolist() == [z // p for z in zs]
    _reduce(x, p)
    assert x.tolist() == [z % p for z in zs]


@pytest.mark.parametrize("p", [P_FLOAT, (1 << 31) - 1])
@pytest.mark.parametrize("fill", [None, "p-1"])
def test_product_limb_path_is_exact(p, fill, monkeypatch):
    # 100 terms take two limbs at P_FLOAT and three at 2^31 - 1; with the
    # plan capped at 7 terms per chunk, the inner dimension is also split
    # into chunks
    k = 100
    assert k > _single_gemm_max(p)
    assert _limb_plan(p, k)[0] == (2 if p == P_FLOAT else 3)
    rng = np.random.default_rng(p)
    shapes = ((4, k), (k, 5), (4, 5))
    if fill is None:
        a, b, c = (rng.integers(0, p, size=s).astype(np.float64) for s in shapes)
    else:
        a, b, c = (np.full(s, p - 1.0) for s in shapes)
    want = _sub_mul_reference(c, a, b, p)
    plan = exactfield._limb_plan
    for capped in (plan, lambda q, n: plan(q, n)[:2] + (7,)):
        monkeypatch.setattr(exactfield, "_limb_plan", capped)
        out = c.copy()
        _sub_mul_mod(out, a, b, p)
        assert out.tolist() == want


# for each limb count the plan takes at p, from k = 1 up, the most terms
# one chunk may sum: one limb is a single gemm, with chunk
# _single_gemm_max(p), and more limbs come in as long as a chunk would
# hold fewer than min(k, 512) terms
LIMB_PLANS = (
    (4194301, ((1, 512),)),
    (P_LAZY, ((1, 70), (2, 193904))),
    (P_SPLIT, ((2, 511), (3, 16399))),
    ((1 << 31) - 1, ((2, 63), (3, 2047))),
)


@pytest.mark.parametrize("p, plans", LIMB_PLANS)
def test_product_exact_at_each_chunk_edge(p, plans):
    # all entries p - 1 at the most terms a chunk of each limb count sums,
    # and one past it, where a limb is added or a second chunk begins
    for i, (limbs, chunk) in enumerate(plans):
        past = plans[i + 1] if i + 1 < len(plans) else (limbs, chunk)
        assert _limb_plan(p, chunk)[::2] == (limbs, chunk)
        assert _limb_plan(p, chunk + 1)[::2] == past
        for k in (chunk, chunk + 1):
            a = np.full((2, k), p - 1.0)
            b = np.full((k, 3), p - 1.0)
            for fill in (0, p - 1):
                c = np.full((2, 3), float(fill))
                _sub_mul_mod(c, a, b, p)
                assert c.tolist() == [[(fill - k) % p] * 3] * 2


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 4194301, P_FLOAT, P_LAZY, P_SPLIT, (1 << 31) - 1])
def test_limb_plan_takes_one_limb_where_one_gemm_is_exact_and_at_most_three(p):
    # each limb costs one gemm per chunk, so three limbs still take fewer
    # gemms than the four of a 16-bit split of both factors
    bits = (p - 1).bit_length()
    for k in (0, 1, 6, 63, 64, 70, 71, 511, 512, 2048, 10**9):
        limbs, w, chunk = _limb_plan(p, k)
        assert chunk >= min(k, 512) and limbs * w >= bits
        assert limbs <= (1 if k <= _single_gemm_max(p) else 3)
        if p == 32003:
            assert limbs == 1
        if k >= 512 and p in (P_LAZY, P_SPLIT, (1 << 31) - 1):
            assert limbs == (2 if p == P_LAZY else 3)


@pytest.mark.parametrize("p", [2, 3, 101, 32003, P_LAZY, P_SPLIT, (1 << 31) - 1])
def test_product_of_inner_dimension_zero_leaves_c(p):
    # _single_gemm_max(2^31 - 1) is 0, so a chunk loop would step by 0
    c = np.arange(6.0).reshape(2, 3) % p
    before = c.copy()
    _sub_mul_mod(c, np.zeros((2, 0)), np.zeros((0, 3)), p)
    assert np.array_equal(c, before)


def test_rng_frozen_first_draws(fp, vectors):
    rng = SeededRng(vectors["seed"])
    draws = random_field_elements(rng, fp, 3)
    assert draws.tolist() == vectors["rng_first_draws"]
    assert rng.counter == 3


def test_rng_determinism_across_instances(fp):
    a = SeededRng(7)
    b = SeededRng(7)
    assert random_field_elements(a, fp, 10).tolist() == random_field_elements(b, fp, 10).tolist()


def test_rng_distinct_seeds_diverge():
    f = FieldSpec.prime((1 << 31) - 1)
    assert random_field_elements(SeededRng(0), f, 1) != random_field_elements(SeededRng(1), f, 1)


def test_rng_state_snapshot(fp):
    rng = SeededRng(3)
    random_field_elements(rng, fp, 2)
    seed, counter = rng.state()
    assert (seed, counter) == (3, 2)
    replay = SeededRng(seed, counter)
    assert random_field_elements(replay, fp, 1) == random_field_elements(rng, fp, 1)


@pytest.mark.parametrize("seed", [0, 7, (1 << 64) - 1, 12345678901234567890])
@pytest.mark.parametrize("counter", [5, 1 << 40, (1 << 64) - 3])
@pytest.mark.parametrize("p", [101, 32003, (1 << 31) - 1])
def test_batch_matches_scalar_stream(seed, counter, p):
    # one batch, and the same draws one at a time, give the stream of the
    # scalar definition; the last counter makes k wrap past 2^64
    f = FieldSpec.prime(p)
    want = splitmix64_mod(seed, counter, 200, p)
    rng = SeededRng(seed, counter)
    batch = random_field_elements(rng, f, 200)
    assert batch.dtype == np.int64
    assert batch.tolist() == want
    assert rng.counter == counter + 200
    rng = SeededRng(seed, counter)
    assert [int(random_field_elements(rng, f, 1)[0]) for _ in range(5)] == want[:5]


@pytest.mark.parametrize(
    "counter, p, want",
    [
        (0, 32003, [9397, 273, 10259, 12525]),
        (0, (1 << 31) - 1, [1696075537, 792097692, 584217219, 635759021]),
        (1 << 40, 32003, [5856, 14238, 27727, 13570]),
        (1 << 40, (1 << 31) - 1, [1275060900, 854372832, 1458511175, 1168159834]),
    ],
)
def test_uint64_wrap_known_answers(counter, p, want):
    # seed 2^64 - 1 makes seed + k * gamma and both products wrap mod 2^64;
    # an operand promoted to float64 or a scalar overflow warning fails here
    rng = SeededRng((1 << 64) - 1, counter)
    assert random_field_elements(rng, FieldSpec.prime(p), 4).tolist() == want
    assert rng.counter == counter + 4


def test_sampling_rejects_tiny_prime():
    rng = SeededRng(0)
    with pytest.raises(SamplingError):
        random_field_elements(rng, FieldSpec.prime(97), 3)
    assert rng.counter == 0


def test_negative_count_draws_nothing(fp):
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        random_field_elements(rng, fp, -2)
    assert rng.counter == 0
    assert random_field_elements(rng, fp, 0).shape == (0,)
    assert rng.counter == 0


def test_small_prime_field_arithmetic():
    # FieldSpec accepts small primes for deterministic linear algebra,
    # only sampling insists on p >= 101
    f = FieldSpec.prime(2)
    m = from_rows([[1, 1], [1, 1]], f)
    assert rank(m, f) == 1


def test_from_rows_validates_shape(fp):
    with pytest.raises(ValueError):
        from_rows([[1, 2], [3]], fp)
