"""Monomial bases, multiplication matrices, Hilbert data, ranks on P^n and X."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wildrep import (
    FieldSpec,
    LinearFormMatrix,
    RegularityError,
    SeededRng,
    basis_dim,
    binom,
    build_kernel_bundle,
    chi_binom,
    hilbert_function,
    hilbert_polynomial,
    koszul_twists,
    make_ci_variety,
    map_rank,
    mult_map,
    rank,
    sample_phi,
)
from wildrep import polyspace, restricted_cohomology_table, restriction
from wildrep.cli import main
from wildrep.exactfield import _LEAF_ROWS, _single_gemm_max
from wildrep.polyspace import _monomials
from wildrep.restriction import ACMVarietyDescriptor
from conftest import cached_bundle
from oracles import from_coeffs, normal_form_map, quotient_piece, zero_phi
from test_exactfield import DIFF_PRIMES, _gauss_jordan


def test_binom_edge_cases():
    assert binom(5, 2) == 10
    assert binom(5, 0) == 1
    assert binom(4, 7) == 0
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0


def test_chi_binom_signed_values():
    # chi(O_P3(k)) = (k+1)(k+2)(k+3)/6 for any integer k
    assert chi_binom(3, 0) == 1
    assert chi_binom(3, 2) == 10
    assert chi_binom(3, -1) == 0
    assert chi_binom(3, -4) == -1
    assert chi_binom(3, -5) == -4
    assert chi_binom(2, -3) == 1


def test_basis_dim_matches_enumeration():
    for n in range(1, 5):
        for d in range(0, 5):
            assert basis_dim(n, d) == binom(n + d, n)
            assert len(_monomials(n, d)) == basis_dim(n, d)
    assert basis_dim(3, -1) == 0


def _grevlex_greater(u, v):
    # u > v in graded reverse lex (x0 > ... > xn) when, at equal total
    # degree, the last nonzero entry of u - v is negative
    du, dv = sum(u), sum(v)
    if du != dv:
        return du > dv
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return a < b
    return False


def test_monomial_order_is_descending_grevlex():
    for n in range(1, 4):
        for d in range(1, 5):
            mons = _monomials(n, d)
            for u, v in zip(mons, mons[1:]):
                assert _grevlex_greater(u, v)


def test_monomial_order_pinned_n2_d2():
    assert _monomials(2, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    )


def test_mult_map_by_single_variable():
    # phi = (x0) on P^1: columns are x0, x1 and rows x0^2, x0 x1, x1^2
    f = FieldSpec.prime()
    phi = from_coeffs(1, 1, 1, f, [[[1, 0]]])
    m = mult_map(phi.coeffs, 1, 1, 1)
    assert m.shape == (3, 2)
    assert m.tolist() == [[1, 0], [0, 1], [0, 0]]


def test_mult_map_degree_one_matrix_is_square():
    # the degree-1 sections matrix of the (n+2)a x 2a presentation is
    # square: 2a binom(n+2, n) = (n+2)a binom(n+1, n)
    f = FieldSpec.prime()
    for n, a in [(2, 1), (3, 1), (3, 2)]:
        phi = sample_phi(n, 2 * a, (n + 2) * a, SeededRng(0), f)
        m = mult_map(phi.coeffs, n, 1, 1)
        assert m.shape[0] == m.shape[1] == 2 * a * basis_dim(n, 2)


def _naive_column(phi, m, j, q):
    """Image of the q-th degree-m monomial in source block j, by hand."""
    n = phi.n
    src = _monomials(n, m)
    tgt = _monomials(n, m + 1)
    u = src[q]
    out = np.zeros(phi.a_tgt * len(tgt), dtype=np.int64)
    for i in range(phi.a_tgt):
        for k in range(n + 1):
            c = int(phi.coeffs[i, j, k])
            if not c:
                continue
            w = list(u)
            w[k] += 1
            r = tgt.index(tuple(w))
            out[i * len(tgt) + r] = (out[i * len(tgt) + r] + c) % phi.field.p
    return out


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10**6),
)
def test_mult_map_matches_naive_multiplication(n, m, seed):
    f = FieldSpec.prime()
    phi = sample_phi(n, 2, n + 3, SeededRng(seed), f)
    mat = mult_map(phi.coeffs, n, m, 1)
    src_dim = basis_dim(n, m)
    assert mat.shape[1] == phi.b_src * src_dim
    for j in range(phi.b_src):
        for q in range(src_dim):
            col = mat[:, j * src_dim + q]
            assert col.tolist() == _naive_column(phi, m, j, q).tolist()


def test_mult_map_negative_degree_is_empty():
    f = FieldSpec.prime()
    phi = sample_phi(2, 2, 4, SeededRng(1), f)
    m = mult_map(phi.coeffs, 2, -1, 1)
    assert m.shape[1] == 0


def test_koszul_degree_data_shapes():
    res = koszul_twists((2, 3))
    assert res == ((2, 3), (5,))
    assert len(res) == 2
    res = koszul_twists((2,))
    assert res == ((2,),)
    res = koszul_twists((2, 2, 3))
    assert res == ((2, 2, 3), (4, 5, 5), (7,))
    assert koszul_twists(()) == ()


def test_koszul_rejects_low_degrees():
    with pytest.raises(ValueError):
        koszul_twists((0,))


def test_hilbert_function_quadric_pinned():
    assert [hilbert_function(3, (2,), k) for k in range(5)] == [1, 4, 9, 16, 25]
    assert hilbert_function(3, (2,), -1) == 0


def _brute_hilbert(n, degrees, k):
    # quotient by the monomial regular sequence x_i^(e_i): count degree-k
    # monomials with the constrained exponents
    total = 0
    for mono in _monomials(n, k):
        if all(mono[i] < e for i, e in enumerate(degrees)):
            total += 1
    return total


def test_hilbert_function_against_monomial_ci():
    # the Hilbert function of a CI depends only on the degrees, so the
    # variable-power sequence is a legitimate oracle
    cases = [
        (2, ()),
        (2, (2,)),
        (3, (2,)),
        (3, (3,)),
        (3, (2, 2)),
        (3, (2, 3)),
        (4, (2, 2)),
    ]
    for n, degrees in cases:
        for k in range(0, 7):
            assert hilbert_function(n, degrees, k) == _brute_hilbert(n, degrees, k), (
                n,
                degrees,
                k,
            )


def test_hilbert_polynomial_eventually_equals_function():
    for n, degrees in [(3, (2,)), (3, (3,)), (4, (2, 2))]:
        for k in range(sum(degrees), sum(degrees) + 5):
            assert hilbert_polynomial(n, degrees, k) == hilbert_function(n, degrees, k)


def test_hilbert_polynomial_signed_low_twists():
    # P^3 itself: the polynomial is chi(O(k)), negative below -3
    assert hilbert_polynomial(3, (), -5) == -4
    assert hilbert_polynomial(3, (), -4) == -1
    assert hilbert_polynomial(3, (), -3) == 0
    # quadric surface: chi(O_X(k)) = (k+1)^2 + k^2 - ... pinned spot value
    assert hilbert_polynomial(3, (2,), -1) == chi_binom(3, -1) - chi_binom(3, -3)


def test_quotient_piece_normal_form_quadric():
    f = FieldSpec.prime()
    x = make_ci_variety(3, (2,), SeededRng(5), f)
    keep, nf = quotient_piece(x, 2)
    assert nf.shape == (9, 10)
    assert len(keep) == 9
    # quotient basis monomials reduce to unit vectors
    for r, idx in enumerate(keep):
        col = nf[:, idx]
        assert col[r] == 1
        assert not np.any(col[np.arange(9) != r])


def test_quotient_piece_kills_the_ideal():
    f = FieldSpec.prime()
    x = make_ci_variety(3, (2,), SeededRng(5), f)
    form = x.forms[0]
    deg2 = _monomials(3, 2)
    deg3 = _monomials(3, 3)
    _, nf = quotient_piece(x, 3)
    for k in range(4):
        # multiply the quadric by x_k, by hand, then reduce
        vec = np.zeros(len(deg3), dtype=np.int64)
        for q, mono in enumerate(deg2):
            c = int(form[q])
            if not c:
                continue
            w = list(mono)
            w[k] += 1
            vec[deg3.index(tuple(w))] = (vec[deg3.index(tuple(w))] + c) % f.p
        image = (nf @ vec) % f.p
        assert not image.any()


def test_quotient_piece_detects_dependent_forms():
    # (f, f) is not a regular sequence: in degree 2 its span has dimension
    # 1, so R_2 / I_2 is larger than the Koszul data of (2, 2) in P^4 predict
    f = FieldSpec.prime()
    sample = make_ci_variety(4, (2, 2), SeededRng(9), f)
    bad = ACMVarietyDescriptor(4, (2, 2), (sample.forms[0],) * 2, f)
    with pytest.raises(RegularityError, match="^degree 2: "):
        polyspace.ideal_dim(bad, 2)
    kb, _ = cached_bundle(4, 1, seed=0)
    with pytest.raises(RegularityError, match="^degree 2: "):
        map_rank(kb.phi, 1, bad)
    # map_rank checks degree 2 + t, the table checks 1 + t_min as well
    with pytest.raises(RegularityError, match="^degree 2: "):
        restricted_cohomology_table(kb, bad, (1, 1))
    with pytest.raises(RegularityError, match="^degree 2: "):
        restricted_cohomology_table(kb, bad)


def _common_factor_variety(field):
    # f_i = l g_i for linear forms l, g_1, g_2 in P^4: both quadrics vanish
    # on the hyperplane l = 0, so they are not a regular sequence
    l, g1, g2 = np.random.default_rng(4).integers(1, field.p, size=(3, 5))
    by_l = mult_map(l[None, None], 4, 1, 1)
    return ACMVarietyDescriptor(4, (2, 2), tuple(by_l @ g % field.p for g in (g1, g2)), field)


def test_common_factor_is_refused():
    # g_2 (l g_1) - g_1 (l g_2) = 0 is a relation in degree 3, one degree
    # before the Koszul one, so I_3 has dimension 9, not 10.  The slice keeps
    # the common factor and proves nothing; the per-degree check refuses
    x = _common_factor_variety(FieldSpec.prime())
    kb, _ = cached_bundle(4, 1)
    assert map_rank(kb.phi, 1, x) == rank(normal_form_map(kb.phi, 1, x), x.field)
    with pytest.raises(RegularityError, match="^degree 3: "):
        map_rank(kb.phi, 2, x)
    with pytest.raises(RegularityError, match="^degree 3: "):
        restricted_cohomology_table(kb, x)


def _spy(monkeypatch, name, record, module=polyspace):
    real = getattr(module, name)

    def spy(*args):
        out = real(*args)
        record(args, out)
        return out

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("p", (101, 32003))
def test_degenerate_slice_takes_the_per_degree_check(p, monkeypatch):
    # x_3^2, x_4^2 is a regular sequence in P^4, but setting x_2..x_4 to 0
    # makes both forms 0, so the slice proves nothing and map_rank ranks the
    # span of I_(m+1) instead
    f = FieldSpec.prime(p)
    squares = tuple(
        np.array([mono == tuple(2 * (i == k) for i in range(5)) for mono in _monomials(4, 2)], dtype=np.int64)
        for k in (3, 4)
    )
    x = ACMVarietyDescriptor(4, (2, 2), squares, f)
    slices, ranked = [], []
    # slice_regular looks _slice_spans up in restriction
    _spy(monkeypatch, "_slice_spans", lambda args, out: slices.append(out), restriction)
    _spy(monkeypatch, "rank", lambda args, out: ranked.append(args[0].shape))
    phi = sample_phi(4, 2, 6, SeededRng(p), f)
    for m in range(-1, 4):
        assert map_rank(phi, m, x) == rank(normal_form_map(phi, m, x), f)
    assert slices and not any(slices)
    # the span of I_k has one row per product u x_3^2 or u x_4^2
    assert {(2 * basis_dim(4, k - 2), basis_dim(4, k)) for k in (2, 3, 4)} <= set(ranked)


def test_slice_never_outgrows_the_span(monkeypatch):
    # the slice of five octics in P^7 is a 91390 x 179800 matrix, and the
    # spans of a default window are empty; the slice is tried only in a
    # degree whose span has at least its cells, so no matrix that ideal_dim
    # builds is larger than the span it stands in for.  Each matrix is one
    # hstack of maps in one number of variables, the slice's fewer than the
    # span's, so the maps are summed by that number and checked before any
    # is allocated
    real, built, tried = polyspace.mult_map, {}, set()

    def mult_map(coeffs, n, m, e):
        a, b, _ = coeffs.shape
        built[n] = built.get(n, 0) + a * basis_dim(n, m + e) * b * basis_dim(n, m)
        assert built[n] <= span
        return real(coeffs, n, m, e)

    monkeypatch.setattr(polyspace, "mult_map", mult_map)
    _spy(monkeypatch, "_slice_spans", lambda args, out: tried.add(args[0]), restriction)
    for n, degrees in ((7, (8,) * 5), (5, (2, 2)), (4, (3, 2))):
        x = make_ci_variety(n, degrees, SeededRng(0), FieldSpec.prime())
        for k in range(-1, 10):
            built.clear()
            span = basis_dim(n, k) * sum(basis_dim(n, k - e) for e in degrees)
            polyspace.ideal_dim(x, k)
    assert tried == {(2, 2), (3, 2)}


def test_mult_map_on_X_shape_18x20():
    # the map on a quadric surface X in P^3 goes (R_X)_1^5 -> (R_X)_2^2,
    # of dimensions 5 * 4 and 2 * 9; map_rank ranks it without building it
    f = FieldSpec.prime()
    x = make_ci_variety(3, (2,), SeededRng(5), f)
    phi = sample_phi(3, 2, 5, SeededRng(0), f)
    assert (hilbert_function(3, x.degrees, 1), hilbert_function(3, x.degrees, 2)) == (4, 9)
    mat = normal_form_map(phi, 1, x)
    assert mat.shape == (18, 20)
    assert map_rank(phi, 1, x) == rank(mat, f)


def test_mult_map_on_X_trivial_ci_matches_ambient():
    # on the complete intersection with no forms the reference map on X is
    # the P^n scatter itself, and so is its rank
    phi = sample_phi(3, 2, 5, SeededRng(0), FieldSpec.prime())
    x = make_ci_variety(3, (), SeededRng(0), FieldSpec.prime())
    assert np.array_equal(normal_form_map(phi, 1, x), mult_map(phi.coeffs, 3, 1, 1))
    assert map_rank(phi, 1, x) == map_rank(phi, 1)


@pytest.mark.parametrize("n, m", [(2, -1), (2, 0), (3, 2), (4, 3)])
def test_mult_map_codimension_zero_is_the_ambient_scatter(n, m, monkeypatch):
    # P^n, the complete intersection of no forms, is ranked as the P^n scatter: no ideal span
    phi = sample_phi(n, 2, n + 2, SeededRng(n + m), FieldSpec.prime())
    ambient = map_rank(phi, m)

    def no_ideal(*args):
        raise AssertionError("codimension 0 built an ideal span")

    monkeypatch.setattr(polyspace, "_products", no_ideal)
    assert map_rank(phi, m, make_ci_variety(n, (), SeededRng(0), FieldSpec.prime())) == ambient


@st.composite
def small_complete_intersections(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    codim = draw(st.integers(min_value=0, max_value=n - 2))
    degrees = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=codim, max_size=codim)))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    p = draw(st.sampled_from((101, 32003)))
    return make_ci_variety(n, degrees, SeededRng(seed), FieldSpec.prime(p))


def test_mult_map_matches_normal_form_oracle(monkeypatch):
    # a copied target row keeps the P^n map short of onto, so map_rank
    # ranks the lift [M | F] at every m.  At p = 101 the coordinate slice is
    # special about deg / p of the time, as at seed 12 of the example, so
    # the sample takes both the certificate and the per-degree check
    slices = set()
    _spy(monkeypatch, "_slice_spans", lambda args, out: slices.add(out), restriction)

    @settings(max_examples=40, deadline=None)
    @example(make_ci_variety(4, (2, 2), SeededRng(12), FieldSpec.prime(101)), 2, True)
    @example(make_ci_variety(4, (2, 2), SeededRng(12), FieldSpec.prime()), 2, False)
    @given(small_complete_intersections(), st.integers(min_value=-1, max_value=2), st.booleans())
    def check(x, m, copied):
        phi = sample_phi(x.n, 2, 3, SeededRng(m + 7), x.field)
        if copied:
            phi.coeffs[1] = phi.coeffs[0]
        assert map_rank(phi, m, x) == rank(normal_form_map(phi, m, x), x.field)

    check()
    assert slices == {True, False}


@pytest.mark.parametrize(
    "n, degrees, m", [(3, (2,), 2), (4, (2, 2), 2), (5, (2, 2, 2), 2)]
)
def test_mult_map_exact_at_largest_prime(n, degrees, m):
    # every coefficient p - 1, so the P^n map has two equal target blocks
    # and is not onto: the rank comes from the lift [M | F], whose form
    # columns hold entries near p, in codimension up to 3
    f = FieldSpec.prime((1 << 31) - 1)
    x = make_ci_variety(n, degrees, SeededRng(3), f)
    phi = zero_phi(n, 2, 3, f)
    phi.coeffs[...] = f.p - 1
    assert map_rank(phi, m, x) == rank(normal_form_map(phi, m, x), x.field)


def test_mult_map_scatter_exact_at_largest_prime():
    # on P^n every entry is one coefficient of phi; all of them p - 1
    f = FieldSpec.prime((1 << 31) - 1)
    phi = zero_phi(3, 2, 3, f)
    phi.coeffs[...] = f.p - 1
    mat = mult_map(phi.coeffs, 3, 2, 1)
    assert mat.dtype == np.int64
    src_dim = basis_dim(3, 2)
    for j in range(phi.b_src):
        for q in range(src_dim):
            want = _naive_column(phi, 2, j, q).tolist()
            assert mat[:, j * src_dim + q].tolist() == want


# the first prime still takes one float64 gemm for an inner dimension of
# 6 at the worst case 6 (p-1)^2 + p <= 2^53, the next prime up splits the
# left factor into two limbs
GEMM_EDGE_PRIMES = (38745307, 38745323)


@pytest.mark.parametrize("p", GEMM_EDGE_PRIMES)
def test_mult_map_on_X_exact_either_side_of_single_gemm(p):
    assert _single_gemm_max(GEMM_EDGE_PRIMES[0]) == 6 > _single_gemm_max(GEMM_EDGE_PRIMES[1])
    f = FieldSpec.prime(p)
    x = make_ci_variety(5, (2, 2), SeededRng(11), f)
    phi = zero_phi(5, 2, 3, f)
    phi.coeffs[...] = f.p - 1
    assert map_rank(phi, 2, x) == rank(normal_form_map(phi, 2, x), f)
    phi = sample_phi(5, 2, 3, SeededRng(12), f)
    assert map_rank(phi, 2, x) == rank(normal_form_map(phi, 2, x), f)


def _append_copies(phi, row=None, col=None):
    """phi with a copy of target row `row` and of source column `col` appended."""
    c = phi.coeffs
    if row is not None:
        c = np.concatenate((c, c[row : row + 1]), axis=0)
    if col is not None:
        c = np.concatenate((c, c[:, col : col + 1]), axis=1)
    return LinearFormMatrix(phi.n, c.shape[0], c.shape[1], phi.field, c)


@pytest.mark.parametrize(
    "n, a, degrees", [(4, 2, ()), (5, 1, (2, 2))]
)  # the ambient-table and ci-restrict benchmark requests
def test_pipeline_map_with_copied_blocks_keeps_its_rank(n, a, degrees, monkeypatch):
    # at the largest twist the pipeline's map has full row rank, so an
    # elimination defect that only ever finds a maximal rank would pass
    # unseen there; copied blocks make the rank fall short of both sides
    # by a known amount
    f = FieldSpec.prime()
    rng = SeededRng(7)
    x = make_ci_variety(n, degrees, rng, f)
    kb, _ = build_kernel_bundle(n, a, rng, f)
    m = 1 + 4  # the largest twist of the default window is 4

    def build(phi):
        return normal_form_map(phi, m, x) if degrees else mult_map(phi.coeffs, n, m, 1)

    base = build(kb.phi)
    r = rank(base, f)
    assert r == base.shape[0]
    src_dim, tgt_dim = base.shape[1] // kb.phi.b_src, base.shape[0] // kb.phi.a_tgt
    # a copy of a source column adds dim (R_X)_m columns and no rank
    dup = build(_append_copies(kb.phi, col=1))
    assert dup.shape[1] == base.shape[1] + src_dim
    assert rank(dup, f) == r
    # a copy of a target row as well: the rank is short of both sides
    both = build(_append_copies(kb.phi, row=0, col=1))
    assert both.shape == (base.shape[0] + tgt_dim, base.shape[1] + src_dim)
    assert rank(both, f) == r
    # on P^n base and dup take the Schur complement, and both, whose
    # copied target row leaves every Phi_k short of full row rank, does
    # not; on X that copied row keeps the P^n map from being onto, so both
    # alone is ranked through its lift [M | F]
    ranked = _ranked_shapes(monkeypatch)
    span_rows = sum(basis_dim(n, m + 1 - e) for e in degrees)
    for copies in ({}, {"col": 1}, {"row": 0, "col": 1}):
        phi = _append_copies(kb.phi, **copies)
        ranked.clear()
        assert map_rank(phi, m, x) == r
        lift = (phi.a_tgt * basis_dim(n, m + 1), phi.b_src * basis_dim(n, m) + phi.a_tgt * span_rows)
        if degrees:
            assert (lift in ranked) == ("row" in copies)


def test_product_table_skips_high_degree_monomials_when_empty(monkeypatch):
    # a degree-20 form in degree 2 has no multiples; its C(26, 6) monomials
    # must not be enumerated just to size the empty table
    requested = []
    enumerate_monomials = polyspace._monomials

    def recording(n, d):
        requested.append((n, d))
        return enumerate_monomials(n, d)

    monkeypatch.setattr(polyspace, "_monomials", recording)
    table = polyspace._product_table(6, -18, 20)
    assert table.shape == (0, basis_dim(6, 20))
    assert (6, 20) not in requested


def _ranked_shapes(monkeypatch):
    """List that receives the shape of each matrix map_rank ranks whole."""
    shapes = []
    rank_of = polyspace.rank

    def recording(mat, field):
        shapes.append(mat.shape)
        return rank_of(mat, field)

    monkeypatch.setattr(polyspace, "rank", recording)
    return shapes


def _check_map_rank(phi, m, x=None):
    """map_rank against the rank of the map, in normal forms on X, and
    against Gauss-Jordan with Python ints where the map is small."""
    on_x = x is not None and x.codim
    mat = normal_form_map(phi, m, x) if on_x else mult_map(phi.coeffs, phi.n, m, 1)
    r = map_rank(phi, m, x)
    assert r == rank(mat, phi.field)
    if mat.size <= 2500:
        assert r == len(_gauss_jordan(mat.tolist(), mat.shape[1], phi.field.p)[1])
    return r


def _chosen_blocks(monkeypatch):
    """List that receives each Phi_k that map_rank turns into [I | 0], that
    is each map ranked by the Schur complement: the top-level pick first,
    then one per level of the recursion onto the hyperplane.  Each level
    hands Phi_k^T to the elimination leaf for every k it tries and takes
    the first Phi_k whose transpose has a pivot in each of its a columns."""
    chosen = []
    leaf = polyspace._leaf

    def recording(m, p):
        piv, t = leaf(m, p)
        if len(piv) == m.shape[1]:
            chosen.append(m.T.astype(np.int64))
        return piv, t

    monkeypatch.setattr(polyspace, "_leaf", recording)
    return chosen


# (a_tgt, b_src): square, wide and, as for the Serre-dual maps, a > b
MAP_RANK_SHAPES = ((1, 1), (2, 3), (3, 2))


@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_map_rank_matches_elimination(p, monkeypatch):
    f = FieldSpec.prime(p)
    rng = np.random.default_rng(p)
    schur = _chosen_blocks(monkeypatch)
    for n in range(1, 6):
        for a, b in MAP_RANK_SHAPES:
            values = rng.integers(0, p, size=(a, b, n + 1))
            for m in range(-1, 6):
                _check_map_rank(from_coeffs(n, a, b, f, values), m)
                assert _check_map_rank(zero_phi(n, a, b, f), m) == 0
    # at every prime but the smallest some random Phi_k has full row rank
    assert schur or p < 101


@pytest.mark.parametrize("p", (101, (1 << 31) - 1))
def test_map_rank_on_complete_intersections(p):
    # P^n as the codimension-0 complete intersection takes the Schur
    # complement; on X the P^n rank comes first, then the lift if needed
    f = FieldSpec.prime(p)
    # a linear form makes I_1 nonzero, so the lift [M | F] is built at m = 0
    for n, degrees in ((2, ()), (3, ()), (3, (2,)), (4, (2, 3)), (4, (1, 2))):
        x = make_ci_variety(n, degrees, SeededRng(n), f)
        for a, b in MAP_RANK_SHAPES:
            phi = sample_phi(n, a, b, SeededRng(a + b), f)
            for m in range(-1, 4):
                _check_map_rank(phi, m, x)


def test_map_rank_builds_nothing_below_degree_zero(monkeypatch):
    # R_m = 0 for m < 0, so the map has no columns and rank 0 on P^n and
    # on X; no scatter, span or lift is built to find that out
    def must_not_build(*args, **kwargs):
        raise AssertionError("map_rank built a matrix for m < 0")

    f = FieldSpec.prime(101)
    phi = sample_phi(3, 2, 5, SeededRng(0), f)
    x = make_ci_variety(3, (2,), SeededRng(3), f)
    monkeypatch.setattr(polyspace, "mult_map", must_not_build)
    monkeypatch.setattr(polyspace, "_products", must_not_build)
    for m in (-1, -2, -7):
        assert map_rank(phi, m) == 0
        assert map_rank(phi, m, x) == 0
        assert map_rank(phi.transpose(), m) == 0


def test_map_rank_builds_the_lift_only_when_the_ideal_adds_columns(monkeypatch, capsys):
    # at m = 0 the P^n map of a kernel-bundle phi is never onto, but with
    # quadrics I_1 = 0, so F is empty and [M | F] is M, which the recursion
    # has ranked already: its 12 x 7 matrix is never eliminated whole
    rng, f = SeededRng(7), FieldSpec.prime()
    x = make_ci_variety(5, (2, 2), rng, f)
    kb, _ = build_kernel_bundle(5, 1, rng, f)
    ranked = _ranked_shapes(monkeypatch)
    map_rank(kb.phi, 0, x)
    assert ranked and (12, 7) not in ranked
    # nor does any benchmark request write phi's own P^n map
    shapes, real = [], polyspace.mult_map

    def recording(coeffs, n, m, e):
        shapes.append(coeffs.shape)
        return real(coeffs, n, m, e)

    monkeypatch.setattr(polyspace, "mult_map", recording)
    for argv, n, a in (
        (["table", "--n", "4", "--a", "2", "--format", "json"], 4, 2),
        (["restrict", "--n", "5", "--ci-degrees", "2", "2", "--a", "1", "--format", "json"], 5, 1),
        (["certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--s", "3"], 3, 2),
    ):
        shapes.clear()
        assert main(argv + ["--seed", "7"]) == 0
        capsys.readouterr()
        assert shapes and (2 * a, (n + 2) * a, n + 1) not in shapes


def test_map_rank_refuses_a_variety_over_other_ambient_data():
    # the check runs before the codimension branch, so a P^m or an F_101
    # descriptor is refused like a complete intersection of the wrong P^m
    kb, _ = cached_bundle(3, 1)
    other_n = make_ci_variety(5, (), SeededRng(0), kb.phi.field)
    other_field = make_ci_variety(3, (), SeededRng(0), FieldSpec.prime(101))
    other_field_ci = make_ci_variety(3, (2,), SeededRng(0), FieldSpec.prime(101))
    for x in (other_n, other_field, other_field_ci, make_ci_variety(5, (2,), SeededRng(0), kb.phi.field)):
        with pytest.raises(ValueError, match="different ambient data"):
            map_rank(kb.phi, 2, x)
    with pytest.raises(ValueError, match="P\\^5"):
        restricted_cohomology_table(kb, other_n, (-1, 1))
    for x in (other_field, other_field_ci):
        with pytest.raises(ValueError, match="different ambient data"):
            restricted_cohomology_table(kb, x, (-1, 1))


@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_map_rank_degenerate_coefficient_blocks(p, monkeypatch):
    f = FieldSpec.prime(p)
    rng = np.random.default_rng(p + 2)
    chosen = _chosen_blocks(monkeypatch)
    for n in (2, 3, 4):
        for m in (0, 1, 3):
            values = rng.integers(0, p, size=(2, 4, n + 1))
            # a copied target row: every Phi_k is deficient, so the map
            # itself is eliminated
            copied = values.copy()
            copied[1] = copied[0]
            chosen.clear()
            _check_map_rank(from_coeffs(n, 2, 4, f, copied), m)
            assert chosen == []
            # Phi_n = 0: a lower variable carries the unit pivots; S_Q0 is
            # the map of phi'' with b - a = a, one more level
            low = values.copy()
            low[:, :, n] = 0
            chosen.clear()
            _check_map_rank(from_coeffs(n, 2, 4, f, low), m)
            picked = [k.tolist() for k in chosen]
            if p >= 101:
                assert picked[:1] == [low[:, :, n - 1].tolist()] and len(picked) == 2
            else:
                assert picked[:1] in [[]] + [[low[:, :, k].tolist()] for k in range(n)]
                assert len(picked) <= 2
            # target row 0 only in x_n: its R_0 rows of the Schur
            # complement are zero, so the complement is rank-deficient, and
            # phi'' has a zero target row, so S_Q0 is eliminated whole
            only = values.copy()
            only[0, :, :n] = 0
            chosen.clear()
            r = _check_map_rank(from_coeffs(n, 2, 4, f, only), m)
            assert r < 2 * basis_dim(n, m + 1)
            if p >= 101:
                assert [k.tolist() for k in chosen] == [only[:, :, n].tolist()]


def _invertible(rng, size, p):
    while True:
        g = rng.integers(0, p, size=(size, size))
        if rank(g, FieldSpec.prime(p)) == size:
            return g.astype(object)


@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_map_rank_needs_every_step_of_the_schur_complement(p):
    # phi = [x_n I + A | B] with A e_0 = x_1 e_1, A e_1 = x_1 e_2 and
    # B = x_0 e_0.  Modulo the unit pivots x_n acts as -A, so the Schur
    # complement spans x_0 x_1^e u e_e for e = 0, 1, 2 and u of degree
    # m - e in x_0..x_(n-1): only the block -W_1 M'[R_2, Q_2] reaches e = 2.
    # A random target basis hides the shape from the variables; the source
    # basis either moves B to the first copy, so that only G brings the
    # unit pivots forward, or is random as well.
    f = FieldSpec.prime(p)
    rng = np.random.default_rng(p + 4)
    for n in (2, 3, 4):
        chain = np.zeros((3, 4, n + 1), dtype=np.int64)
        chain[[0, 1, 2], [0, 1, 2], n] = 1
        chain[1, 0, 1] = chain[2, 1, 1] = chain[0, 3, 0] = 1
        left = _invertible(rng, 3, p)
        for right in (np.eye(4, dtype=object)[:, [3, 0, 1, 2]], _invertible(rng, 4, p)):
            mixed = [left @ chain[:, :, k].astype(object) @ right % p for k in range(n + 1)]
            phi = from_coeffs(n, 3, 4, f, np.stack(mixed, axis=2))
            for m in range(6):
                free = sum(binom(n - 1 + m - e, n - 1) for e in range(min(m, 2) + 1))
                assert _check_map_rank(phi, m) == 3 * basis_dim(n, m) + free


def _counted_products(monkeypatch):
    """List that receives the shape of each exact product map_rank forms."""
    shapes = []
    sub_mul_mod = polyspace._sub_mul_mod

    def recording(c, a, b, p):
        shapes.append((a.shape, b.shape))
        sub_mul_mod(c, a, b, p)

    monkeypatch.setattr(polyspace, "_sub_mul_mod", recording)
    return shapes


def _transposed_blocks(monkeypatch):
    """List that receives the shape of each matrix whose left kernel
    map_rank takes, which it does only for a dense left kernel at the base
    of the recursion and for the chain s of a level with delta > 0."""
    shapes = []
    left_kernel = polyspace.left_kernel

    def recording(mat, field):
        shapes.append(mat.shape)
        return left_kernel(mat, field)

    monkeypatch.setattr(polyspace, "left_kernel", recording)
    return shapes


def _reduced_shapes(monkeypatch):
    """List that receives the shape of each Phi_k^T that polyspace hands to
    the elimination leaf, which it does only to split a tower."""
    shapes = []
    leaf = polyspace._leaf

    def recording(mat, p):
        shapes.append(mat.shape)
        return leaf(mat, p)

    monkeypatch.setattr(polyspace, "_leaf", recording)
    return shapes


@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_map_rank_left_kernel_of_first_block(p, monkeypatch):
    f = FieldSpec.prime(p)
    rng = np.random.default_rng(p + 6)
    products = _counted_products(monkeypatch)
    transposed = _transposed_blocks(monkeypatch)
    reduced = _reduced_shapes(monkeypatch)
    # phi = A [x_n I | x_0 I | ... | x_(n-1) I | B] H with A invertible and
    # H = [[I, X], [0, Y]], Y invertible: the basis change undoes X, so the
    # Q_0 columns reach every target free of x_n and S_Q0 has full row
    # rank, delta = 0, at every prime.  The map then has full row rank, and
    # so does S_Q0, the map of phi'' with a fewer sources on P^(n-1), one
    # level down, and so on to P^0: the only products are phi G, one per
    # level, with no chain and no dense left kernel.
    for n, a in ((2, 1), (2, 2), (3, 2)):
        b = a * (n + 1) + 1
        wide = np.zeros((a, b, n + 1), dtype=object)
        for k in range(n + 1):
            j = a * ((k + 1) % (n + 1))
            wide[:, j : j + a, k] = np.eye(a, dtype=object)
        wide[:, -1, :] = rng.integers(0, p, size=(a, n + 1))
        h = np.eye(b, dtype=object)
        h[:a, a:] = rng.integers(0, p, size=(a, b - a))
        h[a:, a:] = _invertible(rng, b - a, p)
        left = _invertible(rng, a, p)
        mixed = np.stack([left @ wide[:, :, k] @ h % p for k in range(n + 1)], axis=2)
        levels = [(((n + 1 - j) * a, b - j * a), (b - j * a, b - j * a)) for j in range(n)]
        for m in (2, 3):
            # a fresh phi, so that its tower is split inside this map_rank
            phi = from_coeffs(n, a, b, f, mixed)
            products.clear()
            transposed.clear()
            assert _check_map_rank(phi, m) == a * basis_dim(n, m + 1)
            assert products == levels
            assert transposed == []
            # the second rank of the same phi reuses its tower: no phi G and
            # no leaf of Phi_k^T
            products.clear()
            reduced.clear()
            assert map_rank(phi, m) == a * basis_dim(n, m + 1)
            assert products == []
            assert reduced == []
    # m = 0 with Phi_n = [I | *] and b - a < a n: S = S_Q0 has fewer
    # columns than rows, so delta > 0, and there is no chain block to stack;
    # phi'' has b - a = a, so its rank needs no product either.  The tower
    # still forms phi'' G, once, when some block of phi'' is invertible,
    # which at p = 2 it need not be
    for n in (2, 3):
        values = rng.integers(0, p, size=(2, 4, n + 1))
        values[:, :2, n] = np.eye(2, dtype=np.int64)
        products.clear()
        transposed.clear()
        phi = from_coeffs(n, 2, 4, f, values)
        assert _check_map_rank(phi, 0) < 2 * (n + 1)
        below = phi.tower[1][0]
        split = any(rank(below[:, :, k], f) == 2 for k in range(n))
        assert products == [(((n + 1) * 2, 4), (4, 4))] + [((n * 2, 2), (2, 2))] * split
        assert transposed == []


def _recursion_levels(monkeypatch):
    """List that receives (depth, n, a, b, rows - rank) for each map that
    the recursion onto the hyperplane ranks, the top-level map at depth 0."""
    levels = []
    depth = [0]
    hyperplane_rank = polyspace._hyperplane_rank

    def recording(tower, m, field, left):
        depth[0] += 1
        try:
            r, ker = hyperplane_rank(tower, m, field, left)
        finally:
            depth[0] -= 1
        a, b, n1 = tower[0][0].shape
        levels.append((depth[0], n1 - 1, a, b, a * basis_dim(n1 - 1, m + 1) - r))
        return r, ker

    monkeypatch.setattr(polyspace, "_hyperplane_rank", recording)
    return levels


# (n, a, b, m): n = 1 recurses to P^0; (3, 2, 5) is short at two levels, so
# delta > 0 there; (4, 1, 4) is three levels deep; (2, 2, 4) reaches b = a
# one level down, where L_0 = I, and (2, 3, 4) a > b; the kernel-bundle
# shape (5, 2, 7) at m = 4 takes the left kernel of a 42-row chain, taller
# than an elimination leaf
RECURSION_CASES = (
    (1, 1, 2, 3), (1, 2, 3, 2), (3, 2, 5, 2), (4, 1, 4, 2), (2, 2, 4, 3), (2, 3, 4, 2), (5, 2, 7, 4)
)


def _check_left_kernel(coeffs, m, field):
    """The helper's rank and left kernel L of the map of coeffs: L M = 0
    exactly, and L has rows - rank rows, all independent."""
    mat = polyspace.mult_map(coeffs, coeffs.shape[2] - 1, m, 1)
    r, ker = polyspace._hyperplane_rank(polyspace._split_tower(coeffs, field), m, field, True)
    assert r == rank(mat, field)
    assert ker.shape == (mat.shape[0] - r, mat.shape[0])
    ker = ker.astype(np.int64)
    assert not (ker.astype(object) @ mat.astype(object) % field.p).any()
    assert rank(ker, field) == ker.shape[0]


@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_map_rank_recursion_onto_the_hyperplane(p, monkeypatch):
    f = FieldSpec.prime(p)
    rng = np.random.default_rng(p + 8)
    levels = _recursion_levels(monkeypatch)
    kernels = _transposed_blocks(monkeypatch)
    seen = set()
    for n, a, b, m in RECURSION_CASES:
        for _ in range(3):
            values = rng.integers(0, p, size=(a, b, n + 1))
            levels.clear()
            _check_map_rank(from_coeffs(n, a, b, f, values), m)
            _check_left_kernel(values, m, f)
            # a recursive call at depth d + 1 is S_Q0 of a level at depth d,
            # so its missing rank is that level's delta
            below = [level for level in levels if level[0]]
            found = {
                "depth 2": any(d >= 2 for d, *_ in below),
                "delta at two levels": len({d for d, *_, delta in below if delta}) >= 2,
                "P^0": any(k == 0 for _, k, *_ in below),
                "b = a": any(a_ == b_ for _, _, a_, b_, _ in below),
            }
            seen.update(name for name, hit in found.items() if hit)
    assert seen == {"depth 2", "delta at two levels", "P^0", "b = a"}
    # some chain is taller than a leaf, so its left kernel comes from the
    # kernel of its transpose
    assert max(rows for rows, _ in kernels) > _LEAF_ROWS


@pytest.mark.parametrize("p", (101, 32003, (1 << 31) - 1))
def test_every_product_of_the_recursion_is_reduced(p, monkeypatch):
    # the chain and the lift take L_0 itself, not its negative, as their
    # left factor; every factor and accumulator a product reads, and every
    # result it leaves, holds integers in [0, p)
    f = FieldSpec.prime(p)
    rng = np.random.default_rng(p + 12)
    sub_mul_mod, seen = polyspace._sub_mul_mod, []

    def reduced(x):
        whole = x.dtype == np.float64 and np.array_equal(x, np.floor(x))
        return whole and 0 <= x.min(initial=0) and x.max(initial=0) < p

    def checked(c, a, b, q):
        assert q == p and reduced(c) and reduced(a) and reduced(b), (c.shape, a.shape, b.shape)
        sub_mul_mod(c, a, b, q)
        assert reduced(c)
        seen.append(a.shape)

    monkeypatch.setattr(polyspace, "_sub_mul_mod", checked)
    for n, a, b, m in RECURSION_CASES:
        for _ in range(3):
            _check_left_kernel(rng.integers(0, p, size=(a, b, n + 1)), m, f)
    assert seen


# (n, a, b, m) whose left kernel, asked for at every level, is empty at a
# level with delta > 0: level 1 of the ambient-table shape (4, 4, 12) and
# the first level of the others
EMPTY_LEFT_KERNEL_CASES = ((4, 4, 12, 3), (4, 4, 12, 2), (3, 2, 5, 2), (5, 2, 7, 2))


@pytest.mark.parametrize("p", (101, 32003, (1 << 31) - 1))
def test_an_empty_left_kernel_ends_its_level(p, monkeypatch):
    # when u, the left kernel of L_0 S_rest, has no rows, the level's left
    # kernel is empty and nothing is lifted: no product takes u as its
    # left factor
    f = FieldSpec.prime(p)
    rng = np.random.default_rng(p + 10)
    products = _counted_products(monkeypatch)
    empty = []
    left_kernel = polyspace.left_kernel

    def recording(mat, field):
        ker = left_kernel(mat, field)
        if mat.shape[1] and not ker.shape[0]:
            empty.append(mat.shape)
        return ker

    monkeypatch.setattr(polyspace, "left_kernel", recording)
    for n, a, b, m in EMPTY_LEFT_KERNEL_CASES:
        values = rng.integers(0, p, size=(a, b, n + 1))
        products.clear()
        empty.clear()
        _check_left_kernel(values, m, f)
        assert empty
        assert all(left[0] for left, _ in products)


def test_map_rank_reads_back_the_ranks_of_phi(monkeypatch):
    # phi keeps its P^n rank of each degree, read back by every later
    # map_rank of that degree on P^n and inside the rank on X; the ranks on
    # X are not kept, and a fresh phi with equal coefficients ranks again
    f = FieldSpec.prime()
    phi = sample_phi(3, 2, 5, SeededRng(0), f)
    x = make_ci_variety(3, (2,), SeededRng(3), f)
    ranked = []
    hyperplane_rank = polyspace._hyperplane_rank

    def recording(tower, m, field, left):
        ranked.append((tower, m))
        return hyperplane_rank(tower, m, field, left)

    monkeypatch.setattr(polyspace, "_hyperplane_rank", recording)
    assert phi.ranks == {}
    assert phi.coeffs.flags.writeable
    r = map_rank(phi, 1)
    assert phi.ranks == {1: r}
    assert not phi.coeffs.flags.writeable
    assert r == rank(mult_map(phi.coeffs, 3, 1, 1), f)
    on_x = map_rank(phi, 1, x)
    assert map_rank(phi, 1) == r and map_rank(phi, 1, x) == on_x
    map_rank(phi, 2, x)
    assert phi.ranks == {1: r, 2: rank(mult_map(phi.coeffs, 3, 2, 1), f)}
    assert [m for tower, m in ranked if tower is phi.tower] == [1, 2]
    twin = LinearFormMatrix(3, 2, 5, f, phi.coeffs.copy())
    assert map_rank(twin, 1) == r
    assert [m for tower, m in ranked if tower is twin.tower] == [1]
