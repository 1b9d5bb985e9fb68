"""Restriction to complete intersections, vanishing traces, ACM verdicts.

The heavy oracle here: for a hypersurface X of degree e in P^n, the short
exact sequence 0 -> E(t-e) -> E(t) -> E|_X(t) -> 0 has a long exact
cohomology sequence whose ambient terms are all closed-form, and enough
of them vanish to solve for every h^i(X, E(t)) exactly.  A complete
intersection of several forms of degree >= 2 is solved one form at a time,
each cut starting from the table the previous one solved.  The oracle table
is assembled from those solved values only, with no reference to how the
implementation ranks maps on X.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from wildrep import (
    DimensionError,
    FieldSpec,
    KernelBundlePresentation,
    LinearFormMatrix,
    PROV_CERTIFIED,
    PROV_EULER,
    PROV_EXACT,
    SeededRng,
    acm_with_respect_to_s,
    build_kernel_bundle,
    closed_form_cohomology,
    default_window,
    euler_characteristic,
    hilbert_function,
    make_ci_variety,
    restricted_cohomology_table,
    sheaf_surjectivity_certificate,
    vanishing_certificate,
)
from wildrep import polyspace
from wildrep.restriction import ci_dimension
from conftest import cached_bundle
from oracles import (
    alternating_sum,
    cohomology_table_exact,
    line_cohomology_on_ci,
    structure_table,
    vanishing_squeeze,
)


def _les_cut(h, dim, e):
    """h^i(W, E(t)) as a function of (i, t), for W cut from V by a form of
    degree e >= 2, given h^i(V, E(t)) as h(i, t) on V of dimension dim >= 3
    with only the rows 0, 1 and dim nonzero.

    Writing A, B = h^0(V) at t-e, t and C, D = h^1(V) at t-e, t, the
    sequence truncates at the vanishing h^2(V, E(t-e)), giving
    h^0(W) - h^1(W) = B - A + C - D.  For t <= -1 the group h^0(W, E(t))
    injects into C, which vanishes since t - e <= -3, so it is zero, which
    pins h^1(W); for t >= 0, h^1(W, E(t)) is a quotient of the vanishing D,
    which pins h^0(W).  Middle rows vanish and the top row is the
    kernel-free quotient h^dim(V) at t-e minus at t.
    """
    assert e >= 2 and dim >= 3

    def cut(i, t):
        diff = h(0, t) - h(0, t - e) + h(1, t - e) - h(1, t)
        h0 = 0 if t <= -1 else diff
        if i == 0:
            return h0
        if i == 1:
            assert h0 - diff >= 0
            return h0 - diff
        if i == dim - 1:
            return h(dim, t - e) - h(dim, t)
        return 0

    return cut


def _les_ci_rows(n, a, degrees, t_range):
    """Solve the long exact sequences for all h^i(X, E|_X(t)), X = V(f_1..f_c).

    Starting from the closed form on P^n, each degree cuts the current
    complete intersection V by one more form through _les_cut.  By
    induction from P^n, every V has h^0(E(t)) = 0 for t <= -1 and
    h^1(E(t)) = 0 outside t = -1, -2, which is all the cut needs.
    """
    h, dim = (lambda i, t: closed_form_cohomology(n, a, i, t)), n
    for e in degrees:
        h, dim = _les_cut(h, dim, e), dim - 1
    return [[h(i, t) for t in range(t_range[0], t_range[1] + 1)] for i in range(dim + 1)]


def test_make_ci_rejects_small_dimension(fp):
    with pytest.raises(DimensionError):
        make_ci_variety(1, (), SeededRng(0), fp)
    with pytest.raises(DimensionError):
        make_ci_variety(3, (2, 2), SeededRng(0), fp)
    with pytest.raises(DimensionError):
        make_ci_variety(4, (2, 2, 2), SeededRng(0), fp)


@pytest.mark.parametrize(
    "n, degrees, message",
    [
        # n is checked first, then the dimension, then the degrees
        (1, (0, 0), "ambient dimension n = 1 < 2"),
        (3, (2, 0), "codimension 2 leaves dimension 1 < 2 in P^3"),
        (3, (0,), "complete intersection degree 0 < 1"),
    ],
)
def test_ci_dimension_refuses_before_drawing(n, degrees, message, fp):
    rng = SeededRng(0)
    for check in (lambda: ci_dimension(n, degrees), lambda: make_ci_variety(n, degrees, rng, fp)):
        with pytest.raises(ValueError) as refused:
            check()
        assert str(refused.value) == message
    assert rng.counter == 0
    assert ci_dimension(5, (2, 3)) == make_ci_variety(5, (2, 3), rng, fp).d == 3


def test_variety_descriptor_modes(fp):
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    assert x.d == 2 and x.codim == 1
    rng = SeededRng(0)
    triv = make_ci_variety(3, (), rng, fp)
    assert triv.codim == 0 and triv.forms == () and rng.counter == 0


def test_variety_equality_is_identity(fp):
    # equal forms used to make == raise on the truth value of an array
    x, y = (make_ci_variety(3, (2,), SeededRng(5), fp) for _ in range(2))
    assert (x.forms[0] == y.forms[0]).all()
    assert x == x and x != y and not x == y
    assert len({x, y, x}) == 2


def test_chase_trace_quadric_surface(fp):
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    traces = vanishing_certificate(x, 1)
    assert len(traces) == 1
    tr = traces[0]
    assert tr.target_index == 1
    assert tr.excluded_twists == (-1, -2)
    assert tr.verified and not tr.failures
    assert [c.index for c in tr.chain] == [1, 2]
    assert tr.chain[0].offsets == (0,)
    assert tr.chain[0].justification == "index-1"
    assert tr.chain[1].offsets == (-2,)
    assert tr.chain[1].justification == "middle"


def test_chase_trace_trivial_ci(fp):
    x = make_ci_variety(3, (), SeededRng(0), fp)
    traces = vanishing_certificate(x, 1)
    assert [tr.target_index for tr in traces] == [1, 2]
    for tr in traces:
        assert len(tr.chain) == 1
        assert tr.verified
    assert traces[1].excluded_twists == ()


def test_chase_trace_codim2(fp):
    x = make_ci_variety(4, (2, 2), SeededRng(0), fp)
    traces = vanishing_certificate(x, 1)
    assert len(traces) == 1
    tr = traces[0]
    assert [c.index for c in tr.chain] == [1, 2, 3]
    assert tr.chain[1].offsets == (-2, -2)
    assert tr.chain[2].offsets == (-4,)
    assert tr.verified


def test_line_cohomology_vanishes_on_ci(fp):
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    for k in range(-8, 6):
        assert line_cohomology_on_ci(x, 1, k) == 0
    y = make_ci_variety(4, (2,), SeededRng(0), fp)
    for i in (1, 2):
        for k in range(-8, 6):
            assert line_cohomology_on_ci(y, i, k) == 0
    with pytest.raises(ValueError):
        line_cohomology_on_ci(x, 2, 0)


def test_structure_table_quadric_surface(fp):
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    table = structure_table(x, (-6, 4))
    assert [table.cell(0, t) for t in range(0, 5)] == [1, 4, 9, 16, 25]
    assert all(table.cell(0, t) == 0 for t in range(-6, 0))
    assert all(table.cell(1, t) == 0 for t in table.twists())
    # Serre duality on the quadric: h^2(O_X(t)) = h^0(O_X(-2 - t))
    assert table.cell(2, -1) == 0
    assert table.cell(2, -2) == 1
    assert table.cell(2, -3) == 4
    assert table.cell(2, -4) == 9


def test_restricted_table_quadric_surface_frozen(fp):
    kb, _ = cached_bundle(3, 1, seed=0)
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    table = restricted_cohomology_table(kb, x, (-6, 4))
    assert table.as_rows() == [
        [0, 0, 0, 0, 0, 0, 2, 13, 30, 53, 82],
        [0, 0, 0, 0, 2, 3, 0, 0, 0, 0, 0],
        [62, 37, 18, 5, 0, 0, 0, 0, 0, 0, 0],
    ]
    assert table.provenance[(0, 0)] == PROV_EXACT
    assert table.provenance[(2, 0)] == PROV_EULER


def test_restricted_table_quadric_matches_les_oracle(fp):
    kb, _ = cached_bundle(3, 1, seed=0)
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    table = restricted_cohomology_table(kb, x, (-6, 4))
    assert table.as_rows() == _les_ci_rows(3, 1, (2,), (-6, 4))


def test_restricted_table_cubic_matches_les_oracle(fp):
    kb, _ = cached_bundle(3, 1, seed=0)
    x = make_ci_variety(3, (3,), SeededRng(6), fp)
    table = restricted_cohomology_table(kb, x, (-6, 4))
    assert table.as_rows() == _les_ci_rows(3, 1, (3,), (-6, 4))
    # cubic: h^1(E(-3)) = 0 upstairs, so sections do not jump at t = 0
    assert table.cell(0, 0) == 0


def test_restricted_table_quadric_a2_matches_les_oracle(fp):
    kb, _ = cached_bundle(3, 2, seed=0)
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    table = restricted_cohomology_table(kb, x, (-6, 4))
    assert table.as_rows() == _les_ci_rows(3, 2, (2,), (-6, 4))
    # sections jump by h^1(E(-2)) = 2a when crossing t = 0
    assert table.cell(0, 0) == 4


def test_restricted_table_quadric_threefold_audited(fp):
    kb, _ = cached_bundle(4, 1, seed=0)
    x = make_ci_variety(4, (2,), SeededRng(7), fp)
    table = restricted_cohomology_table(kb, x, (-7, 4))
    assert table.as_rows() == _les_ci_rows(4, 1, (2,), (-7, 4))
    for t in table.twists():
        assert vanishing_squeeze(x, 1, 2, t) == 0
        assert table.cell(2, t) == 0
        assert table.provenance[(2, t)] == PROV_CERTIFIED


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    n=st.sampled_from((3, 4)),
    degrees=st.sampled_from(((2,), (3,))),
    a=st.sampled_from((1, 2)),
)
@example(seed=0, n=4, degrees=(2,), a=2)  # its 560 x 1092 map clears lazily into wide leaves
# codimension 2 and 3: the oracle cuts by one form at a time
@example(seed=7, n=4, degrees=(2, 2), a=1)
@example(seed=7, n=4, degrees=(2, 2), a=2)
@example(seed=7, n=5, degrees=(2, 3), a=1)
@example(seed=7, n=5, degrees=(2, 2), a=1)
@example(seed=7, n=5, degrees=(3, 2), a=1)
@example(seed=7, n=6, degrees=(2, 2, 2), a=1)
@example(seed=7, n=6, degrees=(2, 2), a=1)
def test_restricted_table_matches_les_oracle_on_random_hypersurfaces(seed, n, degrees, a):
    # 32003 takes single float64 gemms, 2^31 - 1 up to three limbs
    for p in (32003, (1 << 31) - 1):
        fp = FieldSpec.prime(p)
        rng = SeededRng(seed)
        x = make_ci_variety(n, degrees, rng, fp)
        kb, _ = build_kernel_bundle(n, a, rng, fp)
        window = default_window(x.d)
        table = restricted_cohomology_table(kb, x, window)
        assert table.as_rows() == _les_ci_rows(n, a, degrees, window)


def test_restricted_euler_characteristic_is_column_sum(fp):
    kb, _ = cached_bundle(3, 1, seed=0)
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    table = restricted_cohomology_table(kb, x, (-4, 3))
    for t in table.twists():
        assert alternating_sum(table, t) == euler_characteristic(x.n, 1, t, x.degrees)


def test_trivial_ci_delegates_to_ambient(fp):
    kb, _ = cached_bundle(3, 1, seed=0)
    x = make_ci_variety(3, (), SeededRng(0), fp)
    assert (
        restricted_cohomology_table(kb, x, (-5, 3)).as_rows()
        == cohomology_table_exact(kb, (-5, 3)).as_rows()
    )


def test_ambient_table_splits_phi_once(fp, monkeypatch):
    # the pivot split depends on phi alone: a window of 13 twists hands
    # Phi_k^T to the elimination leaf as often as a window of 3, and
    # transposes phi once.  The Serre-dual phi^T has more targets than
    # sources, so its tower is the dense base, split with no leaf at all
    kb, _ = cached_bundle(4, 2)
    x = make_ci_variety(4, (), SeededRng(0), fp)
    reduced, transposed = [], []
    leaf, transpose = polyspace._leaf, LinearFormMatrix.transpose
    monkeypatch.setattr(polyspace, "_leaf", lambda mat, p: reduced.append(mat.shape) or leaf(mat, p))
    monkeypatch.setattr(LinearFormMatrix, "transpose", lambda phi: transposed.append(phi) or transpose(phi))
    counts = []
    for window in ((-1, 1), (-8, 4)):
        # a fresh phi, whose tower the table splits
        phi = LinearFormMatrix(4, 4, 12, fp, kb.phi.coeffs.copy())
        want = restricted_cohomology_table(kb, x, window).as_rows()
        reduced.clear()
        transposed.clear()
        table = restricted_cohomology_table(KernelBundlePresentation(4, 2, phi), x, window)
        assert table.as_rows() == want
        assert transposed == [phi]
        counts.append(len(reduced))
    assert counts[0] == counts[1] > 0
    reduced.clear()
    assert [k for _, k, _ in kb.phi.transpose().tower] == [None]
    assert reduced == []


@pytest.mark.parametrize("n, a, degrees, window", ((4, 2, (), (-8, 4)), (5, 1, (2, 2), None)))
def test_certificate_and_table_rank_each_degree_of_phi_once(n, a, degrees, window, fp, monkeypatch):
    # the certificate ranks phi in degree 1, and the table's t = 0 column
    # needs the same P^n rank, on X inside the lift identity: phi keeps it,
    # so each top-level map, phi or its Serre dual, is ranked once per degree
    kb, _ = cached_bundle(n, a)
    x = make_ci_variety(n, degrees, SeededRng(0), fp)
    want = restricted_cohomology_table(kb, x, window).as_rows()
    # a fresh phi, which has ranked nothing yet
    phi = LinearFormMatrix(n, 2 * a, (n + 2) * a, fp, kb.phi.coeffs.copy())
    ranked = []
    hyperplane_rank = polyspace._hyperplane_rank

    def recording(tower, m, field, left):
        ranked.append((tower, m))
        return hyperplane_rank(tower, m, field, left)

    monkeypatch.setattr(polyspace, "_hyperplane_rank", recording)
    assert sheaf_surjectivity_certificate(phi).surjective_at_degree == 1
    table = restricted_cohomology_table(KernelBundlePresentation(n, a, phi), x, window)
    assert table.as_rows() == want
    # the recursion's levels live on the hyperplane, in n variables
    top = [(tower[0][0].shape[:2], m) for tower, m in ranked if tower[0][0].shape[2] == n + 1]
    assert len(top) == len(set(top))
    assert ((2 * a, (n + 2) * a), 1) in top
    if not degrees:  # the Serre dual, in degree -t - n - 3 = 1 at t = -8
        assert (((n + 2) * a, 2 * a), 1) in top


def test_restricted_table_ambient_mismatch(fp):
    kb, _ = cached_bundle(2, 1, seed=0)
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    with pytest.raises(ValueError):
        restricted_cohomology_table(kb, x)


def _quadric_table(fp):
    kb, _ = cached_bundle(3, 1, seed=0)
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    return restricted_cohomology_table(kb, x, (-6, 4))


def test_acm_verdicts_on_quadric(fp):
    table = _quadric_table(fp)
    v3 = acm_with_respect_to_s(table, 3)
    assert v3.is_acm is True
    assert v3.checked_twists == (-6, -3, 0, 3)
    assert v3.witnesses == () and v3.missing_twists == ()
    assert acm_with_respect_to_s(table, 4).is_acm is True
    v1 = acm_with_respect_to_s(table, 1)
    assert v1.is_acm is False
    assert v1.witnesses == ((1, -2), (1, -1))
    v2 = acm_with_respect_to_s(table, 2)
    assert v2.is_acm is False
    assert v2.witnesses == ((1, -2),)


def test_acm_inconclusive_when_window_misses_exceptions(fp):
    kb, _ = cached_bundle(3, 1, seed=0)
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    narrow = restricted_cohomology_table(kb, x, (0, 4))
    v1 = acm_with_respect_to_s(narrow, 1)
    assert v1.is_acm is None
    assert set(v1.missing_twists) == {-1, -2}
    v2 = acm_with_respect_to_s(narrow, 2)
    assert v2.is_acm is None and v2.missing_twists == (-2,)
    # s = 3 never reaches the exceptional twists, so the narrow window
    # still certifies
    assert acm_with_respect_to_s(narrow, 3).is_acm is True


def test_acm_rejects_bad_arguments(fp):
    table = _quadric_table(fp)
    with pytest.raises(ValueError):
        acm_with_respect_to_s(table, 0)


def test_hilbert_function_agrees_with_quotient_dims(fp):
    # the sampled forms really behave like a regular sequence: reduced
    # piece dimensions match the Koszul prediction (else RegularityError
    # would have fired inside the table computations above)
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    for k in range(5):
        assert hilbert_function(x.n, x.degrees, k) == (k + 1) ** 2


def test_structure_table_raises_on_broken_vanishing(fp, monkeypatch):
    # the vanishing check must survive python -O, so it is a raise, not
    # an assert
    import oracles

    monkeypatch.setattr(oracles, "line_cohomology_on_ci", lambda x, i, k: 1)
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    with pytest.raises(AssertionError, match="vanishing broken"):
        structure_table(x, (-2, 2))
