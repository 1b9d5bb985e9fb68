"""Simplicity, dimension counts, and wildness certificates.

The dual of the bundle presentation is a module over the Kronecker-style
path algebra with n + 1 arrows; a pair of constant matrices (B, C)
intertwines the presentation matrix A when AC = BA, an identity of
linear forms.  Comparing coefficients variable by variable gives one
homogeneous linear system whose kernel is the endomorphism algebra of
the pair; the bundle is simple exactly when that kernel is the scalars,
i.e. has dimension 1.

The family of presentations modulo the group action has dimension
a^2 (n^2 + 2n - 4) + 1, which grows without bound in a, while the
comparison bound C(n+3, 3) - 1 for the cubic Veronese ambient space is
fixed by n.  A wildness certificate packages the genericity, simplicity
and vanishing checks for one (X, s, a) instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactfield import SeededRng, rank
from .cohomology import CohomologyTable
from .polyspace import binom, hilbert_function
from .presentation import (
    LinearFormMatrix,
    ShapeError,
    SurjectivityCertificate,
    build_kernel_bundle,
)
from .restriction import (
    ACMVarietyDescriptor,
    AcmVerdict,
    DimensionError,
    VanishingChaseTrace,
    acm_with_respect_to_s,
    restricted_cohomology_table,
    vanishing_certificate,
)


class RefusalError(RuntimeError):
    """Certificate request outside the certified range (s < 3)."""


def kac_discriminant(n: int, a: int) -> int:
    """Tits form of the dimension vector (2a, (n+2)a) for n+1 arrows.

    (2a)^2 + ((n+2)a)^2 - (n+1)(2a)((n+2)a).  Negative values put the
    vector in the imaginary root region, where moduli of simple
    representations have positive dimension.
    """
    return (2 * a) ** 2 + ((n + 2) * a) ** 2 - (n + 1) * (2 * a) * ((n + 2) * a)


def family_dimension(n: int, a: int) -> int:
    """Dimension of the family of kernel bundles: a^2 (n^2 + 2n - 4) + 1.

    Equals the parameter count minus the group dimension plus one global
    scalar: 2 a^2 (n+2)(n+1) - a^2 (n+2)^2 - 4 a^2 + 1, the same
    polynomial.  Like the bundle, it has no shape for a < 1.
    """
    if a < 1:
        raise ShapeError(f"no kernel-bundle shape for n = {n}, a = {a}")
    return a * a * (n * n + 2 * n - 4) + 1


def veronese_bound(n: int) -> int:
    """C(n+3, 3) - 1: ambient dimension of the cubic Veronese of P^n."""
    return binom(n + 3, 3) - 1


def embedding_dimension(n: int, degrees: tuple[int, ...], s: int) -> int:
    """h^0(O_X(s)) - 1 for the complete intersection X of the degrees in
    P^n: the target dimension of the re-embedding by s-forms."""
    if s < 0:
        raise ValueError(f"degree s = {s} < 0")
    return hilbert_function(n, degrees, s) - 1


@dataclass(frozen=True)
class StabilizerReport:
    """Endomorphism dimension of a presentation matrix A of linear forms.

    system_rows x system_cols is the coefficient-comparison system; the
    stabilizer of the group action on presentations has dimension
    stab_dimension - 1 on top of the scalars, so simple means
    stab_dimension == 1.  kac_value is recorded as context only: the
    simplicity verdict is the instance computation, never the sign.
    """

    n: int
    a: int
    stab_dimension: int
    simple: bool
    kac_value: int
    system_rows: int
    system_cols: int


def intertwiner_system(a_mat: LinearFormMatrix) -> np.ndarray:
    """Coefficient matrix of AC = BA in the unknown entries of (B, C).

    Unknowns are vec(B) then vec(C), row-major.  Equations are indexed by
    (entry row r, entry column s, variable k): the x_k-coefficient of
    (AC - BA)[r, s] must vanish.  That equation holds -A[i, s, k] at B[r, i]
    and A[r, j, k] at C[j, s]; these positions never coincide, so both sets
    are written once, through diagonal views of the system.
    """
    rows_a, cols_a, nvars = a_mat.a_tgt, a_mat.b_src, a_mat.n + 1
    nb, nc = rows_a * rows_a, cols_a * cols_a
    system = np.zeros((rows_a, cols_a, nvars, nb + nc), dtype=np.int64)
    b_part = system[..., :nb].reshape(rows_a, cols_a, nvars, rows_a, rows_a)
    c_part = system[..., nb:].reshape(rows_a, cols_a, nvars, cols_a, cols_a)
    np.einsum("rskri->rski", b_part)[...] = -a_mat.coeffs.transpose(1, 2, 0) % a_mat.field.p
    np.einsum("rskjs->rskj", c_part)[...] = a_mat.coeffs.transpose(0, 2, 1)[:, None]
    return system.reshape(rows_a * cols_a * nvars, nb + nc)


def stabilizer_dimension(a_mat: LinearFormMatrix) -> StabilizerReport:
    """Solve AC = BA for constant matrices; dimension 1 means simple.

    A must have the presentation shape (n+2)a x 2a.  The scalar pairs
    (lambda I, lambda I) always solve, so the dimension is at least 1.
    """
    n = a_mat.n
    if a_mat.b_src % 2 != 0:
        raise ShapeError(f"presentation matrix has odd column count {a_mat.b_src}")
    a = a_mat.b_src // 2
    if a < 1 or a_mat.a_tgt != (n + 2) * a:
        raise ShapeError(
            f"presentation matrix is {a_mat.a_tgt}x{a_mat.b_src}; expected "
            f"((n+2)a)x(2a) for n = {n}"
        )
    system = intertwiner_system(a_mat)
    dim = system.shape[1] - rank(system, a_mat.field)
    return StabilizerReport(
        n=n,
        a=a,
        stab_dimension=dim,
        simple=(dim == 1),
        kac_value=kac_discriminant(n, a),
        system_rows=system.shape[0],
        system_cols=system.shape[1],
    )


@dataclass(frozen=True)
class WildnessReport:
    """Evidence that one (X, s, a) instance contributes to wildness.

    verdict is true when all five checks pass: the sampled presentation
    passed both genericity certificates, its stabilizer is the scalars,
    the symbolic vanishing chase verified, and the bundle is ACM with
    respect to O_X(s).  family_dim against veronese_bound is the point:
    the family dimension is unbounded in a while the bound is fixed by n.
    """

    n: int
    a: int
    s: int
    prime: int | None
    seed: int | None
    counter: int | None
    variety_degrees: tuple[int, ...]
    variety_dim: int
    bundle_rank: int
    family_dim: int
    veronese: int
    embedding_dim: int
    certificate: SurjectivityCertificate
    stabilizer: StabilizerReport
    traces: tuple[VanishingChaseTrace, ...]
    acm: AcmVerdict
    table: CohomologyTable
    checks: dict[str, bool]
    verdict: bool


def wildness_certificate(
    x: ACMVarietyDescriptor, s: int, a: int, rng: SeededRng
) -> WildnessReport:
    """Full certificate pipeline for erecting one wildness instance.

    Refuses s < 3: multiples of s then reach the twists -1 or -2 where
    the restricted bundle genuinely has h^1, so no certificate exists.
    The ACM check reads the exact restricted table over the default
    window, ranked through the forms of x.
    """
    if s < 3:
        raise RefusalError(
            f"re-embedding degree s = {s}: row 1 of the restricted table is "
            "nonzero at twists -1 and -2, and multiples of s reach them "
            "unless s >= 3"
        )
    if x.d < 2:
        raise DimensionError(f"variety dimension {x.d} < 2")
    n = x.n
    kb, cert = build_kernel_bundle(n, a, rng, x.field)
    stab = stabilizer_dimension(kb.phi.transpose())
    traces = vanishing_certificate(x, a)
    traces_ok = all(tr.verified for tr in traces)
    table = restricted_cohomology_table(kb, x)
    acm = acm_with_respect_to_s(table, s, x.d)
    checks = {
        "genericity": cert.surjective_at_degree is not None,
        "h0_iso": cert.h0_phi1_iso,
        "simple": stab.simple,
        "vanishing": traces_ok,
        "acm": acm.is_acm is True,
    }
    return WildnessReport(
        n=n,
        a=a,
        s=s,
        prime=x.field.p,
        seed=cert.seed,
        counter=cert.counter,
        variety_degrees=x.degrees,
        variety_dim=x.d,
        bundle_rank=kb.rank,
        family_dim=family_dimension(n, a),
        veronese=veronese_bound(n),
        embedding_dim=embedding_dimension(n, x.degrees, s),
        certificate=cert,
        stabilizer=stab,
        traces=traces,
        acm=acm,
        table=table,
        checks=checks,
        verdict=all(checks.values()),
    )
