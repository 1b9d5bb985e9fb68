"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Criteria 2, 3, 4 and 9 quantify over the accepted samples of criterion 1,
so the 5-configuration x 10-seed grid is computed once at module scope
and shared.  Every check is exact; the only tolerance anywhere is the
9-out-of-10 genericity allowance on sampled instances.
"""

import time

import pytest

from wildrep import (
    FieldSpec,
    KernelBundlePresentation,
    PROV_EXACT,
    SeededRng,
    acm_with_respect_to_s,
    build_kernel_bundle,
    embedding_dimension,
    euler_characteristic,
    family_dimension,
    GenericityError,
    kac_discriminant,
    make_ci_variety,
    restricted_cohomology_table,
    sample_phi,
    stabilizer_dimension,
    veronese_bound,
)
from wildrep import presentation
from wildrep.cli import main as cli_main
from conftest import GOLDEN_DIR
from oracles import (
    alternating_sum,
    closed_form_table,
    cohomology_table_exact,
    vanishing_squeeze,
    zero_phi,
)

GRID_CONFIGS = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]
SEEDS = range(10)

_grid_cache = None


def _single_draw(n, a, seed, field):
    """build_kernel_bundle with no resampling: the seed's first draw only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentation, "MAX_RESAMPLE", 0)
        return build_kernel_bundle(n, a, SeededRng(seed), field)


def _grid():
    """One sample per seed (no resampling), full table vs closed forms."""
    global _grid_cache
    if _grid_cache is None:
        field = FieldSpec.prime()
        t0 = time.monotonic()
        results = {}
        for n, a in GRID_CONFIGS:
            window = (-n - 4, 4)
            reference = closed_form_table(n, a, window).as_rows()
            entries = []
            for seed in SEEDS:
                try:
                    kb, cert = _single_draw(n, a, seed, field)
                except GenericityError:
                    entries.append(None)
                    continue
                table = cohomology_table_exact(kb, window)
                entries.append(
                    {
                        "seed": seed,
                        "cert": cert,
                        "table": table,
                        "match": table.as_rows() == reference,
                    }
                )
            results[(n, a)] = entries
        _grid_cache = (results, time.monotonic() - t0)
    return _grid_cache


def _report(num, label, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_closed_form_reproduction():
    results, elapsed = _grid()
    ok = elapsed < 120.0
    for cfg in GRID_CONFIGS:
        matches = sum(1 for e in results[cfg] if e is not None and e["match"])
        ok = ok and matches >= 9
    _report(1, f"closed-form table match on 5x10 grid ({elapsed:.1f}s)", ok)


def test_criterion_02_pinned_h1_values():
    results, _ = _grid()
    ok = True
    for (n, a), entries in results.items():
        for e in entries:
            if e is None:
                continue
            table = e["table"]
            ok = ok and table.cell(1, -1) == a * n and table.cell(1, -2) == 2 * a
    _report(2, "h^1(E(-1)) = an and h^1(E(-2)) = 2a on accepted seeds", ok)


def _euler_holds(table, n, a):
    return all(
        alternating_sum(table, t) == euler_characteristic(n, a, t)
        for t in table.twists()
    )


def test_criterion_03_euler_identity():
    results, _ = _grid()
    field = FieldSpec.prime()
    ok = True
    for (n, a), entries in results.items():
        for e in entries:
            if e is not None:
                ok = ok and _euler_holds(e["table"], n, a)
    for n, a in [(2, 1), (3, 1)]:
        zero = zero_phi(n, 2 * a, (n + 2) * a, field)
        table = cohomology_table_exact(KernelBundlePresentation(n, a, zero))
        ok = ok and _euler_holds(table, n, a)
        deficient = sample_phi(n, 2 * a, (n + 2) * a, SeededRng(99), field)
        deficient.coeffs[-1] = deficient.coeffs[0]
        table = cohomology_table_exact(KernelBundlePresentation(n, a, deficient))
        ok = ok and _euler_holds(table, n, a)
    _report(3, "alternating sum equals chi, including degenerate maps", ok)


def test_criterion_04_duality_cross_check():
    results, _ = _grid()
    ok = True
    for (n, a), entries in results.items():
        for e in entries:
            if e is None:
                continue
            table = e["table"]
            for t in table.twists():
                forced = euler_characteristic(n, a, t) - sum(
                    (-1) ** i * table.cell(i, t) for i in range(n)
                )
                forced = forced if n % 2 == 0 else -forced
                ok = ok and table.cell(n, t) == forced
                # exact-rank provenance means the Serre-dual rank was
                # used and agreed; a fallback would be marked euler-forced
                ok = ok and table.provenance[(n, t)] == PROV_EXACT
    _report(4, "Serre-dual top row equals the Euler-forced value", ok)


def test_criterion_05_simplicity():
    field = FieldSpec.prime()
    ok = True
    for n in (2, 3, 4):
        for a in (1, 2):
            simple = 0
            accepted = 0
            for seed in SEEDS:
                try:
                    kb, _ = _single_draw(n, a, seed, field)
                except GenericityError:
                    continue
                accepted += 1
                if stabilizer_dimension(kb.phi.transpose()).stab_dimension == 1:
                    simple += 1
            ok = ok and accepted >= 9 and simple >= 9
            zero = zero_phi(n, (n + 2) * a, 2 * a, field)
            expect = (n + 2) ** 2 * a * a + 4 * a * a
            ok = ok and stabilizer_dimension(zero).stab_dimension == expect
    for n in range(2, 11):
        for a in range(1, 11):
            ok = ok and kac_discriminant(n, a) < 0
    _report(5, "stabilizer dimension 1 generically, full for A = 0, Kac < 0", ok)


_restriction_cache = None


def _restriction_cases():
    """Quadric/cubic surface in P^3 and quadric threefold in P^4, a = 1, 2."""
    global _restriction_cache
    if _restriction_cache is None:
        field = FieldSpec.prime()
        cases = []
        for n, degree, a in [
            (3, 2, 1),
            (3, 2, 2),
            (3, 3, 1),
            (3, 3, 2),
            (4, 2, 1),
            (4, 2, 2),
        ]:
            x = make_ci_variety(n, (degree,), SeededRng(100 + degree), field)
            kb, _ = build_kernel_bundle(n, a, SeededRng(0), field)
            window = (-x.d - 4, 4)
            table = restricted_cohomology_table(kb, x, window)
            cases.append((n, degree, a, x, table))
        _restriction_cache = cases
    return _restriction_cache


def test_criterion_06_restriction_vanishing():
    ok = True
    for n, degree, a, x, table in _restriction_cases():
        for t in table.twists():
            if t not in (-1, -2):
                ok = ok and table.cell(1, t) == 0
            for i in range(2, x.d):
                # the exact line-bundle path squeezes these to zero too
                ok = ok and vanishing_squeeze(x, a, i, t) == 0
                ok = ok and table.cell(i, t) == 0
    _report(6, "restricted h^1 vanishes outside twists -1, -2 (audited)", ok)


def test_criterion_07_acm_with_respect_to_s():
    ok = True
    for n, degree, a, x, table in _restriction_cases():
        for s in (3, 4):
            ok = ok and acm_with_respect_to_s(table, s).is_acm is True
    results, _ = _grid()
    ambient = next(e for e in results[(2, 1)] if e is not None)["table"]
    v1 = acm_with_respect_to_s(ambient, 1)
    v2 = acm_with_respect_to_s(ambient, 2)
    ok = ok and v1.is_acm is False and (1, -1) in v1.witnesses
    ok = ok and v2.is_acm is False and (1, -2) in v2.witnesses
    _report(7, "ACM for s = 3, 4; witnesses at (1,-1) and (1,-2) for s = 1, 2", ok)


def test_criterion_08_closed_form_constants():
    field = FieldSpec.prime()
    quadric = make_ci_variety(3, (2,), SeededRng(102), field)
    ok = (
        family_dimension(2, 1) == 5
        and family_dimension(3, 1) == 12
        and veronese_bound(2) == 9
        and veronese_bound(3) == 19
        and embedding_dimension(quadric.n, quadric.degrees, 3) == 15
    )
    _report(8, "family dimensions, Veronese bounds, embedding dimension", ok)


def test_criterion_09_surjectivity_certificate():
    results, _ = _grid()
    ok = True
    for cfg in GRID_CONFIGS:
        good = sum(
            1
            for e in results[cfg]
            if e is not None
            and e["cert"].surjective_at_degree == 1
            and e["cert"].h0_phi1_iso
        )
        ok = ok and good >= 9
    _report(9, "certificate at t* = 1 with degree-one isomorphism", ok)


def test_criterion_10_end_to_end_byte_stability(tmp_path):
    argv = ["certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--s", "3"]
    runs = []
    codes = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        codes.append(cli_main(argv + ["--output", str(out)]))
        runs.append(out.read_bytes())
    golden = (GOLDEN_DIR / "certify_n3_ci2_a2_s3.json").read_bytes()
    ok = codes == [0, 0] and runs[0] == runs[1] and runs[0] == golden
    _report(10, "certify exits 0, byte-stable, matches the golden file", ok)
