"""Restriction of kernel bundles to complete intersections.

A complete intersection X in P^n cut by c forms (c <= n - 2, so X has
dimension d = n - c >= 2) is arithmetically Cohen-Macaulay, and sections
of O_X(k) are exactly the degree-k piece of its coordinate ring.  The
restricted presentation 0 -> E|_X(t) -> O_X(1+t)^b -> O_X(2+t)^a -> 0
stays exact, so h^0 and h^1 on X are again the nullity and corank of one
multiplication map, ranked through the map on P^n and the ideal of X.

restricted_cohomology_table is the one loop that fills exact tables.  P^n
is the complete intersection of codimension 0, with no forms to draw, so
the ambient table runs the same loop.  Only the top row differs: on X it
is forced by the Euler characteristic, on P^n it is also the rank of the
Serre-dual map, tagged "exact-rank" where the two agree.

Middle rows 2..d-1 vanish for every twist.  The proof tensors the Koszul
resolution of O_X with E and chases: each consulted ambient group is
H^(i+k)(P^n, E(t - n_j^k)) with index between 1 and n - 1, and such a
group vanishes for every twist when the index is >= 2, and for every
twist outside {-1, -2} when the index is 1.  The chase is recorded as a
symbolic trace, valid for all t simultaneously, with the finitely many
exceptional twists listed explicitly.

The bundle is ACM with respect to O_X(s) when rows 1..d-1 vanish at all
multiples of s; for s >= 3 the multiples never hit -1 or -2, which is the
whole point of re-embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactfield import FieldSpec, SeededRng, random_field_elements
from .cohomology import (
    PROV_CERTIFIED,
    PROV_EXACT,
    PROV_EULER,
    CohomologyTable,
    closed_form_cohomology,
    default_window,
    euler_characteristic,
    h_line,
)
from .polyspace import (
    _slice_spans,
    basis_dim,
    hilbert_function,
    ideal_dim,
    koszul_twists,
    map_rank,
)
from .presentation import KernelBundlePresentation


class DimensionError(ValueError):
    """Variety dimension too small for the restriction theory."""


@dataclass(frozen=True, eq=False)
class ACMVarietyDescriptor:
    """A complete intersection in P^n, cut out by explicit forms.

    forms holds one coefficient vector per degree, over the fixed monomial
    basis of that degree, in F_p for field.  Its Hilbert function and
    resolution twists are the Koszul data of the degrees; P^n is the
    complete intersection of no degrees and no forms.  Equality is
    identity, since arrays have no truth value to compare by, so
    slice_regular lives and dies with the object.
    """

    n: int
    degrees: tuple[int, ...]
    forms: tuple[np.ndarray, ...]
    field: FieldSpec

    @property
    def codim(self) -> int:
        return len(self.degrees)

    @property
    def d(self) -> int:
        """Dimension of the variety."""
        return self.n - self.codim

    @cached_property
    def slice_regular(self) -> bool:
        """True when the coordinate slice of polyspace._slice_spans proves
        the forms a regular sequence, for every degree at once.  Decided
        once per variety; the forms become read-only when it is, so no
        later edit can go stale under it."""
        for coeff in self.forms:
            coeff.flags.writeable = False
        return _slice_spans(self.degrees, self.field, self.forms)


def ci_dimension(n: int, degrees: tuple[int, ...]) -> int:
    """Dimension d = n - len(degrees) of a complete intersection in P^n.

    Refuses n < 2, then d < 2, then a degree < 1, with DimensionError or
    ValueError; it builds no variety and draws nothing.
    """
    if n < 2:
        raise DimensionError(f"ambient dimension n = {n} < 2")
    d = n - len(degrees)
    if d < 2:
        raise DimensionError(
            f"codimension {len(degrees)} leaves dimension {d} < 2 in P^{n}"
        )
    koszul_twists(degrees)
    return d


def make_ci_variety(
    n: int, degrees: tuple[int, ...] | list[int], rng: SeededRng, field: FieldSpec
) -> ACMVarietyDescriptor:
    """Generic complete intersection of the given degrees.

    Requires what ci_dimension does, checked before any form is drawn.
    Each form in turn gets its uniform coefficients as one batch of draws,
    in the order of the monomial basis, so P^n draws nothing.  Regularity
    of the resulting sequence is not assumed but proved when an exact table
    first needs it: for every degree at once by slice_regular, or, when
    that slice is special, against the Koszul Hilbert function in each
    degree that the table reads (polyspace.ideal_dim).
    """
    degrees = tuple(int(e) for e in degrees)
    ci_dimension(n, degrees)
    forms = tuple(random_field_elements(rng, field, basis_dim(n, e)) for e in degrees)
    return ACMVarietyDescriptor(n, degrees, forms, field)


@dataclass(frozen=True)
class ChaseCell:
    """One ambient cohomology group consulted by the vanishing chase.

    Stands for H^index(P^n, E(t + offset)) for every j, where offset runs
    over the listed twist offsets (0 for the initial cell, -n_j^k for the
    k-th resolution step).  justification is "index-1" (vanishes for
    t + offset outside {-1, -2}) or "middle" (vanishes identically).
    """

    index: int
    offsets: tuple[int, ...]
    justification: str


@dataclass(frozen=True)
class VanishingChaseTrace:
    """Symbolic certificate that H^target(X, E|_X(t)) = 0.

    Valid for every integer t not excluded; excluded_twists lists the
    finitely many exceptions (only the target row 1 has any).
    """

    target_index: int
    excluded_twists: tuple[int, ...]
    chain: tuple[ChaseCell, ...]
    verified: bool
    failures: tuple[tuple[int, int], ...] = ()


_VERIFY_SPAN = 12  # symbolic cells are spot-checked on t in [-span, span]


def _verify_chain(n: int, a: int, chain, excluded) -> tuple[bool, tuple]:
    failures = []
    for cell in chain:
        for off in cell.offsets:
            for t in range(-_VERIFY_SPAN, _VERIFY_SPAN + 1):
                if cell.justification == "index-1" and (t + off) in (-1, -2):
                    if t not in excluded:
                        failures.append((cell.index, t))
                    continue
                if closed_form_cohomology(n, a, cell.index, t + off) != 0:
                    failures.append((cell.index, t))
    return (not failures), tuple(failures)


def vanishing_certificate(
    x: ACMVarietyDescriptor, a: int
) -> tuple[VanishingChaseTrace, ...]:
    """Symbolic vanishing traces for rows 1..d-1 of the restricted table.

    Tensoring the resolution of O_X with E and splitting into short exact
    sequences, H^i(X, E(t)) injects into a chain of ambient groups:
    H^i(P^n, E(t)) and H^(i+k)(P^n, E(t - n_j^k)) for k = 1..c.  Every
    index lies in [1, n-1]; indices >= 2 vanish identically and index 1
    vanishes off twists {-1, -2}.  With c = 0 the chain degenerates to
    the single ambient cell.

    Purely combinatorial in the Koszul twists of the degrees: the forms
    of x are never read.  Each trace is spot-verified against the closed
    forms; an unverified trace signals a bug, and is returned with its
    failures for diagnosis rather than raised.
    """
    n, d = x.n, x.d
    if d < 2:
        raise DimensionError(f"variety dimension {d} < 2")
    traces = []
    for i in range(1, d):
        chain = []
        excluded = (-1, -2) if i == 1 else ()
        just0 = "index-1" if i == 1 else "middle"
        chain.append(ChaseCell(i, (0,), just0))
        for k, twists in enumerate(koszul_twists(x.degrees), start=1):
            # index i + k is within 2..n-1: i <= d-1 and k <= c
            chain.append(ChaseCell(i + k, tuple(-t for t in twists), "middle"))
        ok, failures = _verify_chain(n, a, chain, excluded)
        traces.append(
            VanishingChaseTrace(i, excluded, tuple(chain), ok, failures)
        )
    return tuple(traces)


def restricted_cohomology_table(
    kb: KernelBundlePresentation,
    x: ACMVarietyDescriptor,
    t_range: tuple[int, int] | None = None,
) -> CohomologyTable:
    """Exact table of E|_X(t), rows 0..d, over a twist window.

    Each column costs one map_rank, two on P^n: h^0 and h^1 are the nullity
    and corank of the map in degree 1 + t, sized by the Hilbert function.
    Middle rows carry the certified vanishing of the module docstring.  The
    top row h^d is what the Euler characteristic on X forces.  On P^n
    (codimension 0) it is also the rank of the Serre-dual map, the
    transpose of phi in complementary degrees, and the cell is tagged
    "exact-rank" where the two agree; they disagree only for a phi that is
    not sheaf-surjective, and the cell then stays "euler-forced", keeping
    the alternating-sum identity true for arbitrary input.  On X the ranks
    read the forms of x.
    """
    if kb.n != x.n:
        raise ValueError(f"bundle on P^{kb.n} but variety in P^{x.n}")
    n, d = x.n, x.d
    t_min, t_max = default_window(d) if t_range is None else t_range
    if x.codim:
        # the slice proves regularity in every degree; when it is special,
        # the ideal_dim of map_rank checks the degrees 2 + t, whether or
        # not the lift [M | F] is built, and this checks 1 + t_min
        ideal_dim(x, 1 + t_min)
    dual_phi = None if x.codim else kb.phi.transpose()
    cells = {}
    prov = {}
    for t in range(t_min, t_max + 1):
        r = map_rank(kb.phi, 1 + t, x)
        cells[(0, t)] = kb.b_src * hilbert_function(n, x.degrees, 1 + t) - r
        prov[(0, t)] = PROV_EXACT
        cells[(1, t)] = kb.a_tgt * hilbert_function(n, x.degrees, 2 + t) - r
        prov[(1, t)] = PROV_EXACT
        for i in range(2, d):
            cells[(i, t)] = 0
            prov[(i, t)] = PROV_CERTIFIED
        forced = euler_characteristic(n, kb.a, t, x.degrees) - (
            cells[(0, t)] - cells[(1, t)]
        )
        if d % 2 == 1:
            forced = -forced
        cells[(d, t)] = forced
        prov[(d, t)] = PROV_EULER
        if dual_phi is not None:
            dual = map_rank(dual_phi, -t - n - 3)
            if kb.b_src * h_line(n, n, 1 + t) - dual == forced:
                prov[(d, t)] = PROV_EXACT
    return CohomologyTable(d, t_min, t_max, cells, prov)


@dataclass(frozen=True)
class AcmVerdict:
    """Outcome of the ACM-with-respect-to-O_X(s) check on a table.

    is_acm is None when the verdict is inconclusive: some multiple of s
    among the exceptional twists {-1, -2} falls outside the window, so
    the symbolic extension cannot take over.  witnesses lists nonzero
    cells (i, t) found in the window; checked_twists the multiples
    examined.
    """

    s: int
    dim: int
    is_acm: bool | None
    witnesses: tuple[tuple[int, int], ...]
    checked_twists: tuple[int, ...]
    missing_twists: tuple[int, ...]


def acm_with_respect_to_s(table: CohomologyTable, s: int) -> AcmVerdict:
    """Decide vanishing of rows 1..d-1 at all multiples of s, d = table.dim.

    Multiples inside the window are read off the table.  Outside the
    window the symbolic certificate covers every cell except row 1 at
    twists -1 and -2, so the verdict extends to all of Z as long as the
    reachable exceptional twists (-1 needs s = 1, -2 needs s <= 2) lie
    inside the window; otherwise the verdict is inconclusive.
    """
    if s < 1:
        raise ValueError(f"re-embedding degree s = {s} < 1")
    d = table.dim
    checked = [t for t in table.twists() if t % s == 0]
    witnesses = []
    for t in checked:
        for i in range(1, d):
            if table.cell(i, t) != 0:
                witnesses.append((i, t))
    missing = [
        t for t in (-1, -2) if t % s == 0 and not table.t_min <= t <= table.t_max
    ]
    if witnesses:
        verdict: bool | None = False
    elif missing:
        verdict = None
    else:
        verdict = True
    return AcmVerdict(
        s, d, verdict, tuple(witnesses), tuple(checked), tuple(missing)
    )
