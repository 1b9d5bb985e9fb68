"""Quiver-side invariants: stabilizers, dimension counts, wildness reports."""

import numpy as np
import pytest

from wildrep import (
    FieldSpec,
    RefusalError,
    SeededRng,
    ShapeError,
    binom,
    embedding_dimension,
    family_dimension,
    hilbert_function,
    intertwiner_system,
    kac_discriminant,
    make_ci_variety,
    sample_phi,
    stabilizer_dimension,
    veronese_bound,
    wildness_certificate,
)
from conftest import cached_bundle
from oracles import from_rows, nullity, zero_phi


def test_kac_discriminant_pinned():
    assert kac_discriminant(2, 1) == -4
    assert kac_discriminant(3, 1) == -11
    assert kac_discriminant(3, 2) == -44
    assert kac_discriminant(4, 1) == -20


def test_kac_discriminant_negative_exhaustive():
    for n in range(2, 11):
        for a in range(1, 11):
            assert kac_discriminant(n, a) < 0


def test_family_dimension_pinned():
    assert family_dimension(2, 1) == 5
    assert family_dimension(2, 2) == 17
    assert family_dimension(3, 1) == 12
    assert family_dimension(3, 2) == 45
    assert family_dimension(4, 1) == 21


def test_family_dimension_is_one_minus_kac():
    # the parameter count and the Tits form are two routes to the same
    # number: dim of the family = 1 - q(dimension vector)
    for n in range(2, 8):
        for a in range(1, 6):
            assert family_dimension(n, a) == 1 - kac_discriminant(n, a)


def test_family_dimension_refuses_a_below_one():
    # the kernel bundle has no shape for a < 1, so neither has its family
    for a in (0, -2):
        with pytest.raises(ShapeError, match=f"no kernel-bundle shape for n = 3, a = {a}"):
            family_dimension(3, a)


def test_veronese_bound_pinned():
    assert veronese_bound(2) == 9
    assert veronese_bound(3) == 19
    assert veronese_bound(4) == 34


def test_veronese_bound_is_cubic_embedding_of_ambient(fp):
    for n in (2, 3, 4):
        pn = make_ci_variety(n, (), SeededRng(0), fp)
        assert veronese_bound(n) == embedding_dimension(pn.n, pn.degrees, 3)
        assert veronese_bound(n) == binom(n + 3, 3) - 1


def test_embedding_dimension_values(fp):
    quadric = make_ci_variety(3, (2,), SeededRng(5), fp)
    assert embedding_dimension(quadric.n, quadric.degrees, 3) == 15
    assert embedding_dimension(quadric.n, quadric.degrees, 2) == 8
    assert embedding_dimension(3, (3,), 3) == hilbert_function(3, (3,), 3) - 1 == 18


def test_family_exceeds_veronese_bound_eventually():
    # the whole point: fixed comparison bound, family dimension grows
    # quadratically in a, so it passes any threshold
    for n in (2, 3):
        assert any(family_dimension(n, a) > veronese_bound(n) for a in range(1, 4))


def test_stabilizer_generic_cases(fp):
    for n, a in [(2, 1), (3, 1), (3, 2)]:
        kb, _ = cached_bundle(n, a, seed=0)
        rep = stabilizer_dimension(kb.phi.transpose())
        assert rep.stab_dimension == 1
        assert rep.simple
        assert rep.kac_value == kac_discriminant(n, a)
        assert (rep.n, rep.a) == (n, a)


def test_stabilizer_system_shape(fp):
    kb, _ = cached_bundle(2, 1, seed=0)
    sys_mat = intertwiner_system(kb.phi.transpose())
    assert sys_mat.shape == (24, 20)
    kb32, _ = cached_bundle(3, 2, seed=0)
    rep = stabilizer_dimension(kb32.phi.transpose())
    assert (rep.system_rows, rep.system_cols) == (160, 116)


def test_stabilizer_zero_matrix(fp):
    za = zero_phi(2, 4, 2, fp)
    rep = stabilizer_dimension(za)
    assert rep.stab_dimension == 20  # 16 B entries + 4 C entries, all free
    assert not rep.simple


def test_stabilizer_rejects_bad_shape(fp):
    with pytest.raises(ShapeError):
        stabilizer_dimension(zero_phi(2, 5, 2, fp))
    with pytest.raises(ShapeError):
        stabilizer_dimension(zero_phi(2, 4, 3, fp))


def test_scalar_pair_always_intertwines(fp):
    # (B, C) = (I, I) satisfies AC = BA whatever A is, so the cooked-up
    # system must annihilate its vec
    for n, a in [(2, 1), (3, 2)]:
        rows_a, cols_a = (n + 2) * a, 2 * a
        a_mat = sample_phi(n, rows_a, cols_a, SeededRng(13), fp)
        sys_mat = intertwiner_system(a_mat)
        vec = np.zeros(rows_a * rows_a + cols_a * cols_a, dtype=np.int64)
        for i in range(rows_a):
            vec[i * rows_a + i] = 1
        for j in range(cols_a):
            vec[rows_a * rows_a + j * cols_a + j] = 1
        image = (sys_mat @ vec) % fp.p
        assert not image.any()


def _naive_intertwiner_nullity(a_mat, fp):
    """Assemble AC = BA equations from scratch, C unknowns first.

    Different variable order and different loop structure from the
    implementation; nullity is invariant under column permutation.
    """
    ra, ca = a_mat.a_tgt, a_mat.b_src
    nv = a_mat.n + 1
    ncols = ca * ca + ra * ra
    rows = []
    for r in range(ra):
        for s in range(ca):
            for k in range(nv):
                row = [0] * ncols
                for j in range(ca):
                    row[j * ca + s] = (row[j * ca + s] + int(a_mat.coeffs[r, j, k])) % fp.p
                for i in range(ra):
                    col = ca * ca + r * ra + i
                    row[col] = (row[col] - int(a_mat.coeffs[i, s, k])) % fp.p
                rows.append(row)
    return nullity(from_rows(rows, fp), fp)


def test_intertwiner_system_matches_naive_assembly(fp):
    for n, a, seed in [(2, 1, 0), (2, 1, 3), (3, 1, 1), (2, 2, 4)]:
        a_mat = sample_phi(n, (n + 2) * a, 2 * a, SeededRng(seed), fp)
        assert nullity(intertwiner_system(a_mat), fp) == _naive_intertwiner_nullity(
            a_mat, fp
        )


def _loop_intertwiner_system(a_mat, fp):
    """The system entry by entry, in the implementation's row and column order."""
    ra, ca, nv = a_mat.a_tgt, a_mat.b_src, a_mat.n + 1
    system = np.zeros((ra * ca * nv, ra * ra + ca * ca), dtype=np.int64)
    for r in range(ra):
        for s in range(ca):
            for k in range(nv):
                eq = (r * ca + s) * nv + k
                for j in range(ca):
                    system[eq, ra * ra + j * ca + s] += int(a_mat.coeffs[r, j, k])
                for i in range(ra):
                    system[eq, r * ra + i] -= int(a_mat.coeffs[i, s, k])
    return system % fp.p


@pytest.mark.parametrize("p", (101, 32003, (1 << 31) - 1))
def test_intertwiner_system_matches_loop_assembly_entrywise(p):
    fp = FieldSpec.prime(p)
    for n, a, seed in [(3, 2, 0), (2, 1, 3), (4, 1, 1), (2, 2, 4)]:
        rows_a, cols_a = (n + 2) * a, 2 * a
        for a_mat in (
            sample_phi(n, rows_a, cols_a, SeededRng(seed), fp),
            sample_phi(n, cols_a, rows_a, SeededRng(seed), fp).transpose(),
        ):
            system = intertwiner_system(a_mat)
            assert system.dtype == np.int64
            assert np.array_equal(system, _loop_intertwiner_system(a_mat, fp))


def test_wildness_certificate_quadric(fp):
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    rep = wildness_certificate(x, 3, 1, SeededRng(0))
    assert rep.verdict is True
    assert all(rep.checks.values())
    assert rep.bundle_rank == 3
    assert rep.family_dim == 12
    assert rep.veronese == 19
    assert rep.embedding_dim == 15
    assert rep.stabilizer.stab_dimension == 1
    assert rep.acm.is_acm is True
    assert rep.table is not None
    assert rep.prime == 32003
    assert all(tr.verified for tr in rep.traces)


def test_wildness_certificate_refuses_small_s(fp):
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    for s in (1, 2):
        with pytest.raises(RefusalError):
            wildness_certificate(x, s, 1, SeededRng(0))


def test_wildness_certificate_records_rng_state(fp):
    x = make_ci_variety(3, (2,), SeededRng(5), fp)
    rep = wildness_certificate(x, 3, 2, SeededRng(21))
    assert rep.seed == 21
    assert rep.counter == 0
    assert rep.a == 2 and rep.s == 3
    assert rep.family_dim == 45
