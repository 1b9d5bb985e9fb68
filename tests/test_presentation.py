"""Sampling, genericity certificates, kernel bundle construction."""

import numpy as np
import pytest

from wildrep import (
    FieldSpec,
    GenericityError,
    KernelBundlePresentation,
    LinearFormMatrix,
    SeededRng,
    ShapeError,
    build_kernel_bundle,
    map_rank,
    mult_map,
    rank,
    sample_phi,
    sheaf_surjectivity_certificate,
)
from wildrep import presentation
from conftest import cached_bundle
from oracles import h0_phi1_is_isomorphism, zero_phi


def test_sample_phi_frozen_tensor(fp, vectors):
    rng = SeededRng(vectors["seed"])
    phi = sample_phi(2, 2, 4, rng, fp)
    assert phi.coeffs.tolist() == vectors["phi_n2_a2_b4"]
    assert rng.counter == vectors["rng_counter_after_phi"]


def test_sample_phi_row_major_draw_order(fp, vectors):
    phi = sample_phi(2, 2, 4, SeededRng(vectors["seed"]), fp)
    assert phi.coeffs[0, 0].tolist() == vectors["rng_first_draws"]


@pytest.mark.parametrize(
    "shape, error",
    [((0, 2, 4), ShapeError), ((2, -1, 4), ValueError), ((2, -1, -4), ValueError)],
)
def test_refused_shape_draws_nothing(shape, error, fp):
    # (n, a_tgt, b_src): the shape is checked before the batch is drawn, so
    # a refusal leaves the stream where it was, even when two negative
    # sizes multiply to a positive count
    rng = SeededRng(5)
    with pytest.raises(error):
        sample_phi(*shape, rng, fp)
    assert rng.counter == 0


def test_transpose_swaps_blocks(fp):
    phi = sample_phi(2, 2, 4, SeededRng(3), fp)
    pt = phi.transpose()
    assert (pt.a_tgt, pt.b_src) == (4, 2)
    assert np.array_equal(pt.coeffs, phi.coeffs.transpose(1, 0, 2))


def test_tower_freezes_the_coefficients(fp):
    # the first rank splits phi once for every later rank, so an edit of
    # the coefficients after it raises instead of reusing a stale split
    phi = sample_phi(2, 2, 4, SeededRng(3), fp)
    phi.coeffs[0, 0, 0] = 1
    map_rank(phi, 1)
    assert phi.tower is phi.tower
    with pytest.raises(ValueError):
        phi.coeffs[0, 0, 0] = 2
    assert phi.coeffs[0, 0, 0] == 1


def test_certificate_generic_small_cases(fp):
    for n, a in [(2, 1), (3, 1), (3, 2)]:
        kb, cert = cached_bundle(n, a, seed=0)
        assert cert.surjective_at_degree == 1
        assert cert.h0_phi1_iso
        assert cert.seed == 0
        assert kb.rank == n * a
        assert kb.phi.a_tgt == 2 * a and kb.phi.b_src == (n + 2) * a


def test_certificate_records_resample_state(fp):
    # start 7 draws into the stream; the recorded counter points at the
    # accepted sample so replaying from (seed, counter) reproduces phi exactly
    rng = SeededRng(11, 7)
    kb, cert = build_kernel_bundle(2, 1, rng, fp)
    assert (cert.seed, cert.counter) == (11, 7)
    replay = SeededRng(11, cert.counter)
    phi2 = sample_phi(2, 2, 4, replay, fp)
    assert phi2.coeffs.tolist() == kb.phi.coeffs.tolist()


def test_zero_map_has_no_certificate(fp):
    phi = zero_phi(2, 2, 4, fp)
    cert = sheaf_surjectivity_certificate(phi)
    assert cert.surjective_at_degree is None
    assert not cert.h0_phi1_iso


def test_single_variable_map_never_surjective(fp):
    # entries all multiples of x0: the image lies in x0 * sections, a
    # proper subspace in every degree
    phi = zero_phi(2, 2, 4, fp)
    phi.coeffs[:, :, 0] = np.arange(1, 9).reshape(2, 4)
    cert = sheaf_surjectivity_certificate(phi)
    assert cert.surjective_at_degree is None
    assert cert.searched_up_to == 3
    assert not cert.h0_phi1_iso


def test_surjectivity_persists_one_degree_up(fp):
    kb, cert = cached_bundle(3, 1, seed=0)
    t = cert.surjective_at_degree
    for tt in (t, t + 1):
        m = mult_map(kb.phi.coeffs, kb.n, tt, 1)
        assert rank(m, kb.phi.field) == m.shape[0]


def test_iso_check_requires_square(fp):
    phi = sample_phi(2, 1, 4, SeededRng(0), fp)
    with pytest.raises(ShapeError):
        h0_phi1_is_isomorphism(phi)


def test_certificate_reads_iso_off_the_search(fp):
    # the search ranks the square degree-one map, so the certificate takes
    # h0_phi1_iso from where the cokernel vanished; it must agree with
    # ranking that map on its own.  At F_3 random phi go either way
    rng = np.random.default_rng(3)
    f3 = FieldSpec.prime(3)
    phis = [cached_bundle(n, a)[0].phi for n, a in [(2, 1), (3, 1), (3, 2)]]
    phis.append(zero_phi(2, 2, 4, fp))
    phis += [LinearFormMatrix(2, 2, 4, f3, rng.integers(0, 3, (2, 4, 3))) for _ in range(12)]
    isos = [h0_phi1_is_isomorphism(phi) for phi in phis]
    assert True in isos[4:] and False in isos[4:]
    certs = [sheaf_surjectivity_certificate(phi) for phi in phis]
    assert [c.h0_phi1_iso for c in certs] == isos


def test_build_rejects_bad_shape(fp):
    with pytest.raises(ShapeError):
        build_kernel_bundle(1, 1, SeededRng(0), fp)
    with pytest.raises(ShapeError):
        build_kernel_bundle(2, 0, SeededRng(0), fp)


def test_presentation_validates_phi_shape(fp):
    phi = sample_phi(2, 2, 5, SeededRng(0), fp)
    with pytest.raises(ShapeError):
        KernelBundlePresentation(2, 1, phi)


def _zero_draws(rng, field, count):
    rng.counter += count
    return np.zeros(count, dtype=np.int64)


def test_build_exhausts_on_degenerate_stream(fp, monkeypatch):
    # a stream of zeros can never produce a generic sample
    monkeypatch.setattr(presentation, "random_field_elements", _zero_draws)
    monkeypatch.setattr(presentation, "MAX_RESAMPLE", 2)
    with pytest.raises(GenericityError) as exc:
        build_kernel_bundle(2, 1, SeededRng(0), fp)
    message = str(exc.value)
    assert "\n" not in message
    # each attempt draws 2 * 4 * 3 coefficients, so attempts start at
    # counters 0, 24 and 48; the zero matrix fails both checks
    for counter in (0, 24, 48):
        assert (
            f"(seed 0, counter {counter}): surjective_at_degree=None, "
            "h0_phi1_iso=False"
        ) in message
    assert "counter 72" not in message
