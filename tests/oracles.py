"""Reference constructions that the tests compare the package against.

None of these runs in the certificate pipeline, so they live beside the
tests rather than in the package they check: closed-form and structure
tables, the line-bundle cohomology of a complete intersection, and small
builders and counters for matrices.
"""

from wildrep import (
    CohomologyTable,
    DenseMatrix,
    LinearFormMatrix,
    PROV_CERTIFIED,
    PROV_EULER,
    closed_form_cohomology,
    default_window,
    h_line,
    hilbert_function,
    hilbert_polynomial,
    rank,
)

PROV_CLOSED = "closed-form"


def from_rows(entries, field):
    """DenseMatrix from a nested sequence of scalars, reduced into [0, p)."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    m = DenseMatrix.zeros(rows, cols, field)
    for i, row in enumerate(entries):
        if len(row) != cols:
            raise ValueError("ragged rows")
        for j, v in enumerate(row):
            m.data[i, j] = int(v) % field.p
    return m


def from_coeffs(n, a_tgt, b_src, field, values):
    """LinearFormMatrix from a nested (a_tgt, b_src, n+1) sequence of scalars."""
    m = LinearFormMatrix.zero(n, a_tgt, b_src, field)
    for i in range(a_tgt):
        for j in range(b_src):
            for k in range(n + 1):
                m.coeffs[i, j, k] = int(values[i][j][k]) % field.p
    return m


def nullity(m):
    return m.cols - rank(m)


def alternating_sum(table, t):
    """sum_i (-1)^i h^i at twist t: the Euler characteristic of the column."""
    return sum((-1) ** i * table.cell(i, t) for i in range(table.dim + 1))


def table_from_dict(data):
    """Inverse of wildrep.cli.table_dict."""
    cells = {}
    prov = {}
    for i, row in enumerate(data["cells"]):
        for off, v in enumerate(row):
            cells[(i, data["t_min"] + off)] = v
    for i, row in enumerate(data["provenance"]):
        for off, v in enumerate(row):
            prov[(i, data["t_min"] + off)] = v
    return CohomologyTable(data["dim"], data["t_min"], data["t_max"], cells, prov)


def closed_form_table(n, a, t_range=None):
    """Table of E(t) on P^n filled from closed_form_cohomology."""
    t_min, t_max = default_window(n) if t_range is None else t_range
    cells = {}
    prov = {}
    for t in range(t_min, t_max + 1):
        for i in range(n + 1):
            cells[(i, t)] = closed_form_cohomology(n, a, i, t)
            prov[(i, t)] = PROV_CLOSED
    return CohomologyTable(n, t_min, t_max, cells, prov)


def line_cohomology_on_ci(x, i, k):
    """Exact h^i(X, O_X(k)) for middle indices 1 <= i <= d - 1.

    Chases the Koszul resolution of O_X on P^n: every consulted group is
    line-bundle cohomology with index in [i, i + c] inside [1, n - 1],
    and all of those vanish, for any twist.  The function evaluates each
    one rather than trusting the range argument.
    """
    d = x.d
    if not 1 <= i <= d - 1:
        raise ValueError(f"index {i} outside the middle range 1..{d - 1}")
    total = h_line(x.n, i, k)
    for step, twists in enumerate(x.res.betti, start=1):
        for t in twists:
            total += h_line(x.n, i + step, k - t)
    return total


def vanishing_squeeze(x, a, i, t):
    """Upper bound on h^i(X, E|_X(t)) for 2 <= i <= d - 1 from line bundles.

    The sequence 0 -> E(t) -> O_X(1+t)^b -> O_X(2+t)^a_tgt -> 0 makes
    H^i(E(t)) an extension of part of H^i(O_X(1+t))^b by a quotient of
    H^(i-1)(O_X(2+t))^a_tgt, so a zero sum proves the certified zero.
    """
    a_tgt, b_src = 2 * a, (x.n + 2) * a
    return a_tgt * line_cohomology_on_ci(x, i - 1, 2 + t) + (
        b_src * line_cohomology_on_ci(x, i, 1 + t)
    )


def structure_table(x, t_range=None):
    """Cohomology table of O_X itself from the resolution degree data.

    h^0 is the Hilbert function, middle rows vanish (ACM), and the top
    row is forced by the Hilbert polynomial.  Needs no explicit forms.
    """
    d = x.d
    t_min, t_max = default_window(d) if t_range is None else t_range
    cells = {}
    prov = {}
    for t in range(t_min, t_max + 1):
        h0 = hilbert_function(x.res, t) if t >= 0 else 0
        cells[(0, t)] = h0
        prov[(0, t)] = PROV_CLOSED
        for i in range(1, d):
            if line_cohomology_on_ci(x, i, t) != 0:
                raise AssertionError(
                    f"line-bundle vanishing broken at (i, t) = ({i}, {t})"
                )
            cells[(i, t)] = 0
            prov[(i, t)] = PROV_CERTIFIED
        forced = hilbert_polynomial(x.res, t) - h0
        if d % 2 == 1:
            forced = -forced
        cells[(d, t)] = forced
        prov[(d, t)] = PROV_EULER
    return CohomologyTable(d, t_min, t_max, cells, prov)
