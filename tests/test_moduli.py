"""Quiver-side invariants: stabilizers, dimension counts, wildness reports."""

import numpy as np
import pytest

from wildrep import (
    FieldSpec,
    LinearFormMatrix,
    RefusalError,
    SeededRng,
    ShapeError,
    binom,
    build_kernel_bundle,
    embedding_dimension,
    family_dimension,
    hilbert_function,
    kac_discriminant,
    make_ci_variety,
    sample_phi,
    stabilizer_dimension,
    veronese_bound,
    wildness_certificate,
)
from conftest import cached_bundle
from oracles import from_rows, intertwiner_system, kernel_basis, nullity, zero_phi


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
    rep = stabilizer_dimension(kb.phi.transpose())
    assert (rep.system_rows, rep.system_cols) == (24, 20)
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
    # (B, C) = (I, I) satisfies AC = BA whatever A is, so the reference
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


def _naive_intertwiner_system(a_mat, fp):
    """Assemble AC = BA equations from scratch, C unknowns first.

    Different variable order and different loop structure from the
    reference; nullity is invariant under column permutation.
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
    return from_rows(rows, fp)


def test_intertwiner_system_matches_naive_assembly(fp):
    for n, a, seed in [(2, 1, 0), (2, 1, 3), (3, 1, 1), (2, 2, 4)]:
        a_mat = sample_phi(n, (n + 2) * a, 2 * a, SeededRng(seed), fp)
        naive = nullity(_naive_intertwiner_system(a_mat, fp), fp)
        assert nullity(intertwiner_system(a_mat), fp) == naive
        assert stabilizer_dimension(a_mat).stab_dimension == naive


@pytest.mark.parametrize("p", (101, 32003, (1 << 31) - 1))
def test_intertwiner_system_matches_loop_assembly_entrywise(p):
    # the reference, row by row, is the from-scratch assembly with its C
    # and B column blocks swapped back
    fp = FieldSpec.prime(p)
    for n, a, seed in [(3, 2, 0), (2, 1, 3), (4, 1, 1), (2, 2, 4)]:
        rows_a, cols_a = (n + 2) * a, 2 * a
        for a_mat in (
            sample_phi(n, rows_a, cols_a, SeededRng(seed), fp),
            sample_phi(n, cols_a, rows_a, SeededRng(seed), fp).transpose(),
        ):
            system = intertwiner_system(a_mat)
            naive = _naive_intertwiner_system(a_mat, fp)
            assert system.dtype == np.int64
            assert np.array_equal(
                system, np.hstack((naive[:, cols_a * cols_a :], naive[:, : cols_a * cols_a]))
            )


def _direct_sum(first, second):
    """The presentation of E_1 + E_2: phi_1 and phi_2 as diagonal blocks."""
    (a1, b1), (a2, b2) = (first.a_tgt, first.b_src), (second.a_tgt, second.b_src)
    coeffs = np.zeros((a1 + a2, b1 + b2, first.n + 1), dtype=np.int64)
    coeffs[:a1, :b1], coeffs[a1:, b1:] = first.coeffs, second.coeffs
    return LinearFormMatrix(first.n, a1 + a2, b1 + b2, first.field, coeffs)


@pytest.mark.parametrize("p", (101, 32003, (1 << 31) - 1))
def test_stabilizer_dimension_matches_reference_nullity(p):
    # B is eliminated through the kernel N of A_all = [A_0 | ... | A_n];
    # the full system in (B, C) must have the same nullity
    fp = FieldSpec.prime(p)
    accepted = {}
    for n, a in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 5), (4, 1), (4, 2), (5, 1)]:
        a_mat = build_kernel_bundle(n, a, SeededRng(0), fp)[0].phi.transpose()
        # h^0(E(-1)) = 0: A_all has full row rank, so N has na columns
        a_all = a_mat.coeffs.transpose(0, 2, 1).reshape(a_mat.a_tgt, -1)
        assert kernel_basis(a_all, fp).shape[1] == n * a
        accepted[n, a] = a_mat
    cases = [(a_mat, 1) for a_mat in accepted.values()]
    phi_1 = build_kernel_bundle(3, 1, SeededRng(1), fp)[0].phi
    phi_2 = build_kernel_bundle(3, 1, SeededRng(2), fp)[0].phi
    # End(E_1 + E_1) is 2 x 2 matrices; End(E_1 + E_2) is two scalars
    cases.append((_direct_sum(phi_1, phi_1).transpose(), 4))
    cases.append((_direct_sum(phi_1, phi_2).transpose(), 2))
    cases.append((zero_phi(3, 10, 4, fp), 10 * 10 + 4 * 4))
    # a zero row leaves A_all short of full row rank while S is not 0, so
    # both the B that pair with C = 0 and rank S count
    coeffs = accepted[3, 2].coeffs.copy()
    coeffs[0] = 0
    cases.append((LinearFormMatrix(3, 10, 4, fp, coeffs), None))
    for a_mat, expect in cases:
        dim = stabilizer_dimension(a_mat).stab_dimension
        assert dim == nullity(intertwiner_system(a_mat), fp)
        assert expect is None or dim == expect


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
