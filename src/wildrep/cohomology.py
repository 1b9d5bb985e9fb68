"""Cohomology tables of kernel bundles on P^n: the table type and closed forms.

A CohomologyTable holds h^i(E(t)) over a twist window with a provenance
tag per cell.  The exact tables are filled by the one table loop in the
restriction module, which treats P^n as the complete intersection of
codimension 0: twisting 0 -> E(t) -> O(1+t)^b -> O(2+t)^a -> 0 and taking
sections turns h^0 and h^1 into the nullity and corank of one
multiplication-map matrix, the middle rows are certified zero, and the
top row is the Euler-forced value, on P^n cross-checked against the rank
of the Serre-dual map.  This module supplies the line-bundle cohomology,
the Euler characteristic and the closed forms those tables are checked
against.

The closed forms: h^0(E(t)) = a((n+2) C(n+t+1, n) - 2 C(n+t+2, n)) for
t > 0 and 0 otherwise; h^1 is an at t = -1, 2a at t = -2, else 0; middle
rows vanish identically; the top row vanishes for t >= -n-1 and follows
the Euler characteristic below that.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .polyspace import binom, hilbert_polynomial

PROV_EXACT = "exact-rank"
PROV_CERTIFIED = "certified-vanishing"
PROV_EULER = "euler-forced"


def h_line(n: int, i: int, t: int) -> int:
    """h^i(P^n, O(t)): binomial at the ends, zero in the middle."""
    if not 0 <= i <= n:
        raise ValueError(f"cohomological index {i} outside 0..{n}")
    if i == 0:
        return binom(n + t, n)
    if i == n:
        return binom(-t - 1, n)
    return 0


def euler_characteristic(n: int, a: int, t: int, degrees: tuple[int, ...] = ()) -> int:
    """chi(E|_X(t)) for the rank-na kernel bundle on P^n, restricted to the
    complete intersection X of the degrees (P^n itself by default).

    By additivity (n+2)a P_X(1+t) - 2a P_X(2+t), with P_X the Hilbert
    polynomial, which is chi(O_X) at every integer twist.
    """
    return (n + 2) * a * hilbert_polynomial(n, degrees, 1 + t) - 2 * a * hilbert_polynomial(
        n, degrees, 2 + t
    )


def closed_form_cohomology(n: int, a: int, i: int, t: int) -> int:
    """Closed-form h^i(E(t)) for a generic kernel bundle on P^n."""
    if n < 2 or a < 1:
        raise ValueError(f"no kernel bundle for n = {n}, a = {a}")
    if not 0 <= i <= n:
        raise ValueError(f"cohomological index {i} outside 0..{n}")
    if i == 0:
        if t <= 0:
            return 0
        return a * ((n + 2) * binom(n + t + 1, n) - 2 * binom(n + t + 2, n))
    if i == n:
        if t >= -n - 1:
            return 0
        # below the vanishing range every lower row is zero, so the Euler
        # characteristic lands entirely in the top row
        value = euler_characteristic(n, a, t)
        if n % 2 == 1:
            value = -value
        return value
    if i == 1:
        if t == -1:
            return a * n
        if t == -2:
            return 2 * a
        return 0
    return 0


@dataclass(frozen=True)
class CohomologyTable:
    """Integer table h^i, i = 0..dim, over a twist window [t_min, t_max].

    cells maps (i, t) to a dimension; provenance records how each cell
    was obtained: "exact-rank", "certified-vanishing" or "euler-forced".
    """

    dim: int
    t_min: int
    t_max: int
    cells: dict[tuple[int, int], int] = dataclass_field(repr=False, default_factory=dict)
    provenance: dict[tuple[int, int], str] = dataclass_field(repr=False, default_factory=dict)

    def cell(self, i: int, t: int) -> int:
        return self.cells[(i, t)]

    def twists(self) -> range:
        return range(self.t_min, self.t_max + 1)

    def as_rows(self) -> list[list[int]]:
        """cells as nested lists rows[i][t - t_min]; empty when no twists."""
        if self.t_min > self.t_max:
            return []
        return [
            [self.cells[(i, t)] for t in self.twists()] for i in range(self.dim + 1)
        ]

    def provenance_rows(self) -> list[list[str]]:
        if self.t_min > self.t_max:
            return []
        return [
            [self.provenance[(i, t)] for t in self.twists()]
            for i in range(self.dim + 1)
        ]


def default_window(dim: int) -> tuple[int, int]:
    """Default twist window [-dim - 4, 4]: covers every nonzero closed-form
    feature plus two zero columns on each side."""
    return (-dim - 4, 4)
