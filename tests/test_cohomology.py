"""Exact and closed-form cohomology tables of the kernel bundles."""

import numpy as np
import pytest

from wildrep import (
    FieldSpec,
    KernelBundlePresentation,
    PROV_CERTIFIED,
    PROV_EULER,
    PROV_EXACT,
    SeededRng,
    chi_binom,
    closed_form_cohomology,
    default_window,
    euler_characteristic,
    h_line,
    make_ci_variety,
    sample_phi,
)
from conftest import cached_bundle
from oracles import (
    PROV_CLOSED,
    alternating_sum,
    closed_form_table,
    cohomology_table_exact,
    vanishing_squeeze,
    zero_phi,
)


def test_h_line_values():
    assert h_line(2, 0, 3) == 10
    assert h_line(2, 0, 0) == 1
    assert h_line(2, 0, -1) == 0
    assert h_line(2, 1, 5) == 0
    assert h_line(2, 1, -2) == 0
    assert h_line(2, 2, -4) == 3
    assert h_line(2, 2, -3) == 1
    assert h_line(2, 2, -2) == 0
    assert h_line(3, 2, -7) == 0
    assert h_line(3, 3, -5) == 4
    assert h_line(3, 3, -4) == 1
    assert h_line(3, 3, -3) == 0


def test_h_line_euler_identity():
    for n in (2, 3, 4):
        for t in range(-9, 6):
            total = sum((-1) ** i * h_line(n, i, t) for i in range(n + 1))
            assert total == chi_binom(n, t)


def test_euler_characteristic_formula():
    for n, a in [(2, 1), (3, 2), (4, 1)]:
        for t in range(-8, 5):
            expect = (n + 2) * a * chi_binom(n, 1 + t) - 2 * a * chi_binom(n, 2 + t)
            assert euler_characteristic(n, a, t) == expect


def test_closed_form_pinned_n2_a1():
    vals0 = {1: 4, 2: 10, 3: 18, 4: 28, 0: 0, -1: 0}
    for t, v in vals0.items():
        assert closed_form_cohomology(2, 1, 0, t) == v
    assert closed_form_cohomology(2, 1, 1, -1) == 2
    assert closed_form_cohomology(2, 1, 1, -2) == 2
    assert closed_form_cohomology(2, 1, 1, 0) == 0
    assert closed_form_cohomology(2, 1, 1, -3) == 0
    for t, v in {-6: 18, -5: 10, -4: 4, -3: 0}.items():
        assert closed_form_cohomology(2, 1, 2, t) == v


def test_closed_form_pinned_n3():
    assert closed_form_cohomology(3, 1, 0, 1) == 10
    assert closed_form_cohomology(3, 1, 1, -1) == 3
    assert closed_form_cohomology(3, 1, 1, -2) == 2
    assert closed_form_cohomology(3, 1, 2, -5) == 0
    assert closed_form_cohomology(3, 1, 3, -8) == 80
    assert closed_form_cohomology(3, 1, 3, -6) == 18
    assert closed_form_cohomology(3, 2, 1, -1) == 6
    assert closed_form_cohomology(3, 2, 1, -2) == 4


def test_closed_form_scales_linearly_in_a():
    for i in range(4):
        for t in range(-9, 5):
            assert closed_form_cohomology(3, 2, i, t) == 2 * closed_form_cohomology(
                3, 1, i, t
            )


def test_one_regularity():
    # regularity 1: h^i(E(t - i)) = 0 whenever t >= 1 and i >= 1
    for n, a in [(2, 1), (3, 1), (4, 2)]:
        for i in range(1, n + 1):
            for t in range(1, 6):
                assert closed_form_cohomology(n, a, i, t - i) == 0


def test_closed_form_euler_identity():
    for n, a in [(2, 1), (3, 2)]:
        for t in range(-10, 5):
            total = sum(
                (-1) ** i * closed_form_cohomology(n, a, i, t) for i in range(n + 1)
            )
            assert total == euler_characteristic(n, a, t)


def test_exact_table_pinned_n2_a1():
    kb, _ = cached_bundle(2, 1, seed=0)
    table = cohomology_table_exact(kb, (-6, 4))
    assert table.as_rows() == [
        [0, 0, 0, 0, 0, 0, 0, 4, 10, 18, 28],
        [0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0],
        [18, 10, 4, 0, 0, 0, 0, 0, 0, 0, 0],
    ]


def test_exact_matches_closed_form_n3(fp):
    kb, _ = cached_bundle(3, 1, seed=0)
    table = cohomology_table_exact(kb)
    assert table.as_rows() == closed_form_table(3, 1).as_rows()


@pytest.mark.parametrize("n, a", ((5, 2), (6, 1)))
def test_large_ambient_tables_match_closed_form(n, a):
    # the `table` requests at seed 7: for n = 6, a = 1 the first block of
    # every Schur complement misses full row rank by 6 rows, so each twist
    # runs the chain on the left kernel of that block
    kb, _ = cached_bundle(n, a, seed=7)
    assert cohomology_table_exact(kb).as_rows() == closed_form_table(n, a).as_rows()


def test_default_window():
    assert default_window(2) == (-6, 4)
    assert default_window(3) == (-7, 4)


def test_exact_table_provenance(fp):
    kb, _ = cached_bundle(3, 1, seed=0)
    table = cohomology_table_exact(kb, (-7, 4))
    for t in table.twists():
        assert table.provenance[(0, t)] == PROV_EXACT
        assert table.provenance[(1, t)] == PROV_EXACT
        assert table.provenance[(2, t)] == PROV_CERTIFIED
        # accepted bundles: the dual rank always agrees with the forced
        # value, so the top row keeps its exact-rank provenance
        assert table.provenance[(3, t)] == PROV_EXACT
        assert table.cell(2, t) == 0


def test_closed_form_table_provenance():
    table = closed_form_table(2, 1, (-3, 2))
    assert set(table.provenance.values()) == {PROV_CLOSED}


def test_window_restriction_consistency():
    kb, _ = cached_bundle(2, 1, seed=0)
    wide = cohomology_table_exact(kb, (-6, 4))
    narrow = cohomology_table_exact(kb, (-3, 1))
    for t in narrow.twists():
        for i in range(3):
            assert narrow.cell(i, t) == wide.cell(i, t)


def test_alternating_sum_equals_euler(fp):
    kb, _ = cached_bundle(2, 2, seed=0)
    table = cohomology_table_exact(kb)
    for t in table.twists():
        assert alternating_sum(table, t) == euler_characteristic(2, 2, t)


def test_euler_identity_zero_map(fp):
    # phi = 0 is as degenerate as it gets: E splits, the dual-rank route
    # disagrees with the forced value at deep negative twists, so those
    # cells fall back to euler-forced provenance but the identity holds
    phi = zero_phi(2, 2, 4, fp)
    kb = KernelBundlePresentation(2, 1, phi)
    table = cohomology_table_exact(kb, (-6, 4))
    for t in table.twists():
        assert alternating_sum(table, t) == euler_characteristic(2, 1, t)
    assert table.provenance[(2, -6)] == PROV_EULER
    assert table.provenance[(2, -5)] == PROV_EULER
    assert table.provenance[(2, -3)] == PROV_EXACT
    # the zero map presents no bundle; the column is the formal
    # (nullity, corank) pair of a 12x12 zero matrix
    assert table.cell(0, 0) == 12
    assert table.cell(1, 0) == 12


def test_euler_identity_rank_deficient_map(fp):
    phi = sample_phi(2, 2, 4, SeededRng(17), fp)
    phi.coeffs[1] = phi.coeffs[0]  # two equal rows: never surjective
    kb = KernelBundlePresentation(2, 1, phi)
    table = cohomology_table_exact(kb, (-6, 4))
    for t in table.twists():
        assert alternating_sum(table, t) == euler_characteristic(2, 1, t)


def test_audit_flag_accepts_generic_table(fp):
    kb, _ = cached_bundle(3, 1, seed=0)
    table = cohomology_table_exact(kb, (-5, 2))
    pn = make_ci_variety(3, (), SeededRng(0), fp)
    assert all(vanishing_squeeze(pn, 1, 2, t) == 0 for t in table.twists())
    assert table.cell(2, 0) == 0


def test_table_cell_out_of_window(fp):
    kb, _ = cached_bundle(2, 1, seed=0)
    table = cohomology_table_exact(kb, (-2, 2))
    with pytest.raises(KeyError):
        table.cell(0, 3)
