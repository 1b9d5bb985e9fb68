"""Reference constructions that the tests compare the package against.

None of these runs in the certificate pipeline, so they live beside the
tests rather than in the package they check: closed-form and structure
tables, the ambient table through the restricted loop, a direct rank of
the degree-one sections map, the line-bundle cohomology of a complete
intersection, the normal-form map on a complete intersection, and small
builders and counters for matrices.
"""

import numpy as np

from wildrep import (
    CohomologyTable,
    LinearFormMatrix,
    PROV_CERTIFIED,
    PROV_EULER,
    ShapeError,
    basis_dim,
    closed_form_cohomology,
    default_window,
    h_line,
    hilbert_function,
    hilbert_polynomial,
    kernel_basis,
    koszul_twists,
    make_ci_variety,
    map_rank,
    mult_map,
    rank,
    restricted_cohomology_table,
)
from wildrep.polyspace import _product_table

PROV_CLOSED = "closed-form"


def from_rows(entries, field):
    """int64 array from a nested sequence of scalars, reduced into [0, p)."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    m = np.zeros((rows, cols), dtype=np.int64)
    for i, row in enumerate(entries):
        if len(row) != cols:
            raise ValueError("ragged rows")
        for j, v in enumerate(row):
            m[i, j] = int(v) % field.p
    return m


def from_coeffs(n, a_tgt, b_src, field, values):
    """LinearFormMatrix from a nested (a_tgt, b_src, n+1) sequence of scalars."""
    m = LinearFormMatrix.zero(n, a_tgt, b_src, field)
    for i in range(a_tgt):
        for j in range(b_src):
            for k in range(n + 1):
                m.coeffs[i, j, k] = int(values[i][j][k]) % field.p
    return m


def nullity(m, field):
    return m.shape[1] - rank(m, field)


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


def cohomology_table_exact(kb, t_range=None):
    """Exact cohomology table of E(t) on P^n over a twist window.

    P^n is the complete intersection of codimension 0, so this is the
    restricted table on make_ci_variety(n, ()).
    """
    x = make_ci_variety(kb.n, (), field=kb.phi.field)
    return restricted_cohomology_table(kb, x, t_range)


def h0_phi1_is_isomorphism(phi):
    """True iff the induced map on degree-one sections is bijective.

    Ranks phi's map in degree 1 on its own, the reference for the certificate's
    h0_phi1_iso, which it reads off the surjectivity search.  Requires the
    matrix to be square; for the kernel-bundle shape both sides have
    dimension a (n+1)(n+2).
    """
    rows, cols = phi.a_tgt * basis_dim(phi.n, 2), phi.b_src * basis_dim(phi.n, 1)
    if rows != cols:
        raise ShapeError(f"degree-one sections matrix is {rows}x{cols}, not square")
    return map_rank(phi, 1) == rows


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
    for step, twists in enumerate(koszul_twists(x.degrees), start=1):
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
    """Cohomology table of O_X itself from the Koszul data of its degrees.

    h^0 is the Hilbert function, middle rows vanish (ACM), and the top
    row is forced by the Hilbert polynomial.  Needs no explicit forms.
    """
    d = x.d
    t_min, t_max = default_window(d) if t_range is None else t_range
    cells = {}
    prov = {}
    for t in range(t_min, t_max + 1):
        h0 = hilbert_function(x.n, x.degrees, t) if t >= 0 else 0
        cells[(0, t)] = h0
        prov[(0, t)] = PROV_CLOSED
        for i in range(1, d):
            if line_cohomology_on_ci(x, i, t) != 0:
                raise AssertionError(
                    f"line-bundle vanishing broken at (i, t) = ({i}, {t})"
                )
            cells[(i, t)] = 0
            prov[(i, t)] = PROV_CERTIFIED
        forced = hilbert_polynomial(x.n, x.degrees, t) - h0
        if d % 2 == 1:
            forced = -forced
        cells[(d, t)] = forced
        prov[(d, t)] = PROV_EULER
    return CohomologyTable(d, t_min, t_max, cells, prov)


def quotient_piece(x, k):
    """Degree-k piece of R/I by normal forms: (monomial indices, nf).

    nf, the transposed canonical kernel basis of the span of I_k, maps a
    coefficient vector in R_k to its normal-form coordinates.  Row j is 1
    at a free column f_j, minus the echelon entries at the pivot columns,
    all before f_j, so f_j is its last nonzero position; the free columns
    index monomials of R_k that represent a basis of (R/I)_k.
    """
    nk = basis_dim(x.n, k)
    span = np.zeros((0, nk), dtype=np.int64)
    for e, coeff in zip(x.degrees, x.forms):
        # row u holds the coefficients of u * f, u of degree k - e
        table = _product_table(x.n, k - e, e)
        block = np.zeros((table.shape[0], nk), dtype=np.int64)
        block[np.arange(table.shape[0])[:, None], table] = coeff
        span = np.vstack((span, block))
    nf = kernel_basis(span, x.field).T
    free = tuple(int(np.flatnonzero(row)[-1]) for row in nf)
    return free, nf


def normal_form_map(phi, m, x):
    """The map (R_X)_m^b -> (R_X)_(m+1)^a of phi on X, in normal forms.

    Sources are the surviving monomials of degree m, targets the
    normal-form coordinates of degree m + 1, blocks stacked row-major as
    in mult_map.  This is the reference that ranks on X are checked
    against.  The products split nf into 16-bit limbs, so every int64 sum
    stays below 2^63 for p < 2^31.
    """
    p, a, b = phi.field.p, phi.a_tgt, phi.b_src
    keep, _ = quotient_piece(x, m)
    _, nf = quotient_piece(x, m + 1)
    cols = (np.arange(b)[:, None] * basis_dim(x.n, m) + np.array(keep, dtype=np.intp)).ravel()
    blocks = mult_map(phi.coeffs % p, x.n, m, 1)[:, cols].reshape(a, nf.shape[1], cols.size)
    hi, lo = np.divmod(nf, 1 << 16)
    return np.vstack([((hi @ g) % p * (1 << 16) + lo @ g) % p for g in blocks])
