"""Kernel bundles presented by matrices of linear forms.

A matrix phi of linear forms on P^n defines a sheaf map O(1)^b -> O(2)^a
after twisting.  For the shapes of interest (a_tgt = 2a, b_src = (n+2)a)
a generic phi is surjective and has bijective sections in the first
degree, and its kernel is a rank-na vector bundle.  Genericity is never
assumed: it is certified, by exhibiting a degree where the cokernel of
the induced graded map vanishes and by checking that the square
degree-one sections matrix is invertible.  Samples failing either check
are resampled a bounded number of times and then rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .exactfield import FieldSpec, SeededRng, random_field_elements
from .polyspace import _split_tower, basis_dim, map_rank


# last degree the sheaf surjectivity certificate tries
SURJECTIVITY_SEARCH_MAX = 3

# samples build_kernel_bundle draws after a failed first one
MAX_RESAMPLE = 8


class GenericityError(RuntimeError):
    """Sampling failed to produce a matrix passing the genericity certificates."""


class ShapeError(ValueError):
    """Matrix shape incompatible with the requested construction."""


@dataclass(frozen=True, eq=False)
class LinearFormMatrix:
    """a_tgt x b_src matrix whose entries are linear forms on P^n.

    coeffs has shape (a_tgt, b_src, n + 1): coeffs[i, j, k] is the
    coefficient of x_k in entry (i, j), canonical in the field.
    """

    n: int
    a_tgt: int
    b_src: int
    field: FieldSpec
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError(f"ambient dimension n = {self.n} < 1")
        if self.coeffs.shape != (self.a_tgt, self.b_src, self.n + 1):
            raise ShapeError(
                f"coefficient tensor shape {self.coeffs.shape} != "
                f"({self.a_tgt}, {self.b_src}, {self.n + 1})"
            )

    @cached_property
    def tower(self) -> tuple:
        """The pivot split of polyspace._split_tower, made once per phi and
        shared by the rank of every twist.  The coefficients become
        read-only when it is made, so no later edit can go stale under it."""
        self.coeffs.flags.writeable = False
        return _split_tower(self.coeffs % self.field.p, self.field)

    @cached_property
    def ranks(self) -> dict[int, int]:
        """The rank of phi's map on P^n in each degree m that polyspace.map_rank
        has ranked, keyed by m, so that no degree is ranked twice.  Like
        tower it lives and dies with phi; map_rank fills it from the tower,
        so the coefficients are read-only before it holds a rank."""
        return {}

    def transpose(self) -> "LinearFormMatrix":
        return LinearFormMatrix(
            self.n, self.b_src, self.a_tgt, self.field,
            np.ascontiguousarray(self.coeffs.transpose(1, 0, 2)),
        )


def sample_phi(
    n: int, a_tgt: int, b_src: int, rng: SeededRng, field: FieldSpec
) -> LinearFormMatrix:
    """Uniform coefficient tensor; draw order is (i, j, k) row-major.

    One batch of a_tgt * b_src * (n + 1) draws from the rng's (seed,
    counter), reshaped in that order, so the counter advances by exactly
    that many.  A refused shape draws nothing.
    """
    if n < 1 or a_tgt < 0 or b_src < 0:
        raise ShapeError(f"no {a_tgt}x{b_src} matrix of linear forms on P^{n}")
    coeffs = random_field_elements(rng, field, a_tgt * b_src * (n + 1))
    return LinearFormMatrix(n, a_tgt, b_src, field, coeffs.reshape(a_tgt, b_src, n + 1))


@dataclass(frozen=True)
class SurjectivityCertificate:
    """Witness that phi is surjective as a sheaf map.

    surjective_at_degree is the smallest t in [-1, searched_up_to] where
    the induced map H^0(O(t))^b -> H^0(O(t+1))^a has full row rank, or
    None if no such degree exists in the range.  The cokernel module is
    generated in degrees <= -1, so one vanishing graded piece at t >= -1
    kills all later pieces and hence the cokernel sheaf.

    h0_phi1_iso records whether the degree-one sections matrix is square
    and invertible.  seed and counter, when present, are the rng state
    from which phi can be resampled.
    """

    surjective_at_degree: int | None
    searched_up_to: int
    h0_phi1_iso: bool
    seed: int | None = None
    counter: int | None = None


def sheaf_surjectivity_certificate(phi: LinearFormMatrix) -> SurjectivityCertificate:
    """Search degrees -1..SURJECTIVITY_SEARCH_MAX for a vanishing cokernel piece.

    Degrees where full row rank is impossible (more rows than columns)
    are skipped without forming the matrix.  The cokernel is zero from its
    first zero piece on, so the search also decides h0_phi1_iso: the
    square degree-one map is onto, hence bijective, iff found <= 1.
    """
    found = None
    for t in range(-1, SURJECTIVITY_SEARCH_MAX + 1):
        nrows = phi.a_tgt * basis_dim(phi.n, t + 1)
        ncols = phi.b_src * basis_dim(phi.n, t)
        if nrows > ncols:
            continue
        if map_rank(phi, t) == nrows:
            found = t
            break
    square = phi.a_tgt * basis_dim(phi.n, 2) == phi.b_src * basis_dim(phi.n, 1)
    iso = square and found is not None and found <= 1
    return SurjectivityCertificate(found, SURJECTIVITY_SEARCH_MAX, iso)


@dataclass(frozen=True)
class KernelBundlePresentation:
    """Rank-na kernel bundle of phi(1): O(1)^((n+2)a) -> O(2)^(2a) on P^n."""

    n: int
    a: int
    phi: LinearFormMatrix

    def __post_init__(self):
        if self.n < 2:
            raise ShapeError(f"ambient dimension n = {self.n} < 2")
        if self.a < 1:
            raise ShapeError(f"family parameter a = {self.a} < 1")
        if (self.phi.a_tgt, self.phi.b_src) != (2 * self.a, (self.n + 2) * self.a):
            raise ShapeError(
                f"phi is {self.phi.a_tgt}x{self.phi.b_src}; kernel bundle needs "
                f"{2 * self.a}x{(self.n + 2) * self.a}"
            )
        if self.phi.n != self.n:
            raise ShapeError("phi lives on a different ambient space")

    @property
    def rank(self) -> int:
        return self.n * self.a

    @property
    def b_src(self) -> int:
        return (self.n + 2) * self.a

    @property
    def a_tgt(self) -> int:
        return 2 * self.a


def build_kernel_bundle(
    n: int,
    a: int,
    rng: SeededRng,
    field: FieldSpec,
) -> tuple[KernelBundlePresentation, SurjectivityCertificate]:
    """Sample phi until both genericity certificates pass.

    Makes at most 1 + MAX_RESAMPLE attempts, all drawn from the one rng
    stream; the returned certificate records the (seed, counter) state
    from which the accepted phi was drawn.  Raises GenericityError when
    every attempt fails, which over a field of size >= 101 signals a bug
    or adversarial inputs rather than bad luck; its one-line message names
    each attempt's (seed, counter) and the outcome of both checks.
    """
    a_tgt, b_src = 2 * a, (n + 2) * a
    if n < 2 or a < 1:
        raise ShapeError(f"no kernel-bundle shape for n = {n}, a = {a}")
    attempts = 1 + MAX_RESAMPLE
    failed = []
    for _ in range(attempts):
        seed, counter = rng.state()
        phi = sample_phi(n, a_tgt, b_src, rng, field)
        cert = sheaf_surjectivity_certificate(phi)
        if cert.surjective_at_degree is not None and cert.h0_phi1_iso:
            return KernelBundlePresentation(n, a, phi), replace(cert, seed=seed, counter=counter)
        failed.append(
            f"(seed {seed}, counter {counter}): surjective_at_degree="
            f"{cert.surjective_at_degree}, h0_phi1_iso={cert.h0_phi1_iso}"
        )
    raise GenericityError(
        f"no generic sample for (n, a) = ({n}, {a}) after {attempts} attempts; "
        + "; ".join(failed)
    )
