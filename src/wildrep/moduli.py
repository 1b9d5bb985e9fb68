"""Simplicity, dimension counts, and wildness certificates.

The dual of the bundle presentation is a module over the Kronecker-style
path algebra with n + 1 arrows; a pair of constant matrices (B, C)
intertwines the presentation matrix A when AC = BA, an identity of
linear forms.  The pairs form the endomorphism algebra; the bundle is
simple exactly when it is the scalars, i.e. has dimension 1.  B is
eliminated exactly, so the dimension is one rank of a system in C alone.

The family of presentations modulo the group action has dimension
a^2 (n^2 + 2n - 4) + 1, which grows without bound in a, while the
comparison bound C(n+3, 3) - 1 for the cubic Veronese ambient space is
fixed by n.  A wildness certificate packages the genericity, simplicity
and vanishing checks for one (X, s, a) instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactfield import SeededRng, _sub_mul_mod, left_kernel, rank
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

    stab_dimension is the nullity of the coefficient comparison of AC = BA
    in (B, C), whose closed-form size is system_rows x system_cols; B is
    eliminated, so that system is never built.  The stabilizer of the
    group action on presentations has dimension stab_dimension - 1 on top
    of the scalars, so simple means stab_dimension == 1.  kac_value is
    recorded as context only: the simplicity verdict is the instance
    computation, never the sign.
    """

    n: int
    a: int
    stab_dimension: int
    simple: bool
    kac_value: int
    system_rows: int
    system_cols: int


def stabilizer_dimension(a_mat: LinearFormMatrix) -> StabilizerReport:
    """Dimension of the constant pairs (B, C) with AC = BA; 1 means simple.

    A must have the presentation shape R x 2a, R = (n+2)a.  With A_all =
    [A_0 | ... | A_n] and N a basis of its right kernel, the pairs (B, 0)
    are the B with B A_all = 0, R (R - rank A_all) dimensions, and C
    extends to a pair exactly when A_all (I kron C) N = 0.  The coefficient
    of C[i, j] in entry (r, c) of that condition is sum_k A_k[r, i]
    N_k[j, c], one product over k.  The scalar pairs (lambda I, lambda I)
    always solve, so the dimension is at least 1.
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
    rows, cols, p = a_mat.a_tgt, a_mat.b_src, a_mat.field.p
    coeffs = a_mat.coeffs % p
    kernel = left_kernel(coeffs.transpose(0, 2, 1).reshape(rows, -1).T, a_mat.field).T
    nu = kernel.shape[1]
    rank_all = cols * (n + 1) - nu
    # -S, which has the rank of S, indexed (r, i) x (j, c), then (r, c) x (i, j)
    s = np.zeros((rows * cols, cols * nu))
    left, right = coeffs.reshape(-1, n + 1), kernel.reshape(n + 1, -1)
    _sub_mul_mod(s, left.astype(np.float64), right, p)
    s = s.reshape(rows, cols, cols, nu).transpose(0, 3, 1, 2)
    dim = rows * (rows - rank_all) + cols * cols - rank(s.reshape(rows * nu, -1), a_mat.field)
    return StabilizerReport(
        n=n,
        a=a,
        stab_dimension=dim,
        simple=(dim == 1),
        kac_value=kac_discriminant(n, a),
        system_rows=rows * cols * (n + 1),
        system_cols=rows * rows + cols * cols,
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
    acm = acm_with_respect_to_s(table, s)
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
