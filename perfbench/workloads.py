"""The three workloads and their oracles.

Each operation is one ``wildrep`` CLI invocation.  The oracles recompute the
expected answer from closed forms written here with ``math.comb``; they call
nothing in ``wildrep``, so they stay valid whatever the implementation does.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable


def _binom(m: int, k: int) -> int:
    return comb(m, k) if 0 <= k <= m else 0


def _poly_binom(n: int, k: int) -> int:
    """C(n + k, n) as a polynomial in k: (k+1)...(k+n) / n!, any integer k."""
    num = 1
    for i in range(1, n + 1):
        num *= k + i
    return num // factorial(n)


def _koszul_twists(degrees: tuple[int, ...]) -> list[tuple[int, int]]:
    """(sign, twist) for every subset of the degrees, empty subset included."""
    out = []
    for mask in range(1 << len(degrees)):
        chosen = [e for i, e in enumerate(degrees) if mask >> i & 1]
        out.append((-1 if len(chosen) % 2 else 1, sum(chosen)))
    return out


def hilbert_function(n: int, degrees: tuple[int, ...], k: int) -> int:
    """dim (R/I)_k for a complete intersection; 0 in negative degrees."""
    if k < 0:
        return 0
    return sum(sign * _binom(n + k - t, n) for sign, t in _koszul_twists(degrees))


def hilbert_polynomial(n: int, degrees: tuple[int, ...], k: int) -> int:
    return sum(sign * _poly_binom(n, k - t) for sign, t in _koszul_twists(degrees))


def _h1(n: int, a: int, t: int) -> int:
    return {-1: n * a, -2: 2 * a}.get(t, 0)


def ambient_rows(n: int, a: int, t_min: int, t_max: int) -> list[list[int]]:
    """Closed-form table of the rank-na kernel bundle E(t) on P^n.

    E sits in 0 -> E -> O(1)^b -> O(2)^(2a) -> 0 with b = (n+2)a.  h^0 is
    the difference of section counts for t > 0, h^1 is na at t = -1 and 2a
    at t = -2, the middle rows vanish, and the top row carries the Euler
    characteristic below t = -n-1.
    """
    b = (n + 2) * a
    rows = [[0] * (t_max - t_min + 1) for _ in range(n + 1)]
    for col, t in enumerate(range(t_min, t_max + 1)):
        if t > 0:
            rows[0][col] = b * _binom(n + t + 1, n) - 2 * a * _binom(n + t + 2, n)
        rows[1][col] = _h1(n, a, t)
        if t < -n - 1:
            chi = b * _poly_binom(n, 1 + t) - 2 * a * _poly_binom(n, 2 + t)
            rows[n][col] = -chi if n % 2 else chi
    return rows


def check_ambient(out: dict, n: int, a: int) -> str | None:
    table = out["table"]
    if (table["dim"], table["t_min"], table["t_max"]) != (n, -n - 4, 4):
        return f"unexpected table frame {table['dim'], table['t_min'], table['t_max']}"
    if table["cells"] != ambient_rows(n, a, -n - 4, 4):
        return "cells differ from the closed form"
    if any("euler-forced" in row for row in table["provenance"]):
        return "a cell is tagged euler-forced"
    return None


def check_restricted(out: dict, n: int, a: int, degrees: tuple[int, ...]) -> str | None:
    """h^0 - h^1 from the Hilbert function of X, h^1 closed form, middle rows 0,
    and the alternating sum equal to chi(E|_X(t)) from the Hilbert polynomial."""
    table = out["table"]
    d = n - len(degrees)
    b = (n + 2) * a
    if (table["dim"], table["t_min"], table["t_max"]) != (d, -d - 4, 4):
        return f"unexpected table frame {table['dim'], table['t_min'], table['t_max']}"
    cells = table["cells"]
    for col, t in enumerate(range(table["t_min"], table["t_max"] + 1)):
        h = [row[col] for row in cells]
        diff = b * hilbert_function(n, degrees, 1 + t) - 2 * a * hilbert_function(n, degrees, 2 + t)
        if h[1] != _h1(n, a, t) or h[0] - h[1] != diff:
            return f"rows 0/1 wrong at t = {t}"
        if any(h[2:d]):
            return f"middle row nonzero at t = {t}"
        chi = b * hilbert_polynomial(n, degrees, 1 + t) - 2 * a * hilbert_polynomial(n, degrees, 2 + t)
        if sum(v if i % 2 == 0 else -v for i, v in enumerate(h)) != chi:
            return f"alternating sum != chi at t = {t}"
    return None


def check_certify(out: dict) -> str | None:
    if out["verdict"] is not True:
        return "verdict is not true"
    if out["stabilizer"]["stab_dimension"] != 1:
        return f"stab_dimension {out['stabilizer']['stab_dimension']} != 1"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments without --seed
    check: Callable[[dict], str | None]

    def op_argv(self, op_seed: int) -> list[str]:
        return [*self.argv, "--seed", str(op_seed)]

    def verify(self, code: int, text: str) -> str | None:
        """None when the op's output is right, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        try:
            return self.check(json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ambient-table",
            ("table", "--n", "4", "--a", "2", "--format", "json"),
            lambda out: check_ambient(out, 4, 2),
        ),
        Workload(
            "ci-restrict",
            ("restrict", "--n", "5", "--ci-degrees", "2", "2", "--a", "1", "--format", "json"),
            lambda out: check_restricted(out, 5, 1, (2, 2)),
        ),
        Workload(
            "certify-family",
            ("certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--s", "3"),
            check_certify,
        ),
    )
}

# Replayed once before timing; its output must match the committed golden
# file byte for byte.
GOLDEN_ARGV = ("certify", "--n", "3", "--ci-degrees", "2", "--a", "2", "--s", "3", "--seed", "0")
GOLDEN_FILE = "tests/golden/certify_n3_ci2_a2_s3.json"


def timed_op(main, argv: list[str]) -> tuple[float, int, str]:
    """One CLI operation in process: (seconds, exit code, captured stdout).

    An operation that raises gets exit code -1 and the exception as output,
    so it fails its check instead of ending the run.
    """
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except Exception as exc:
        return time.perf_counter() - t0, -1, repr(exc)
    return time.perf_counter() - t0, code, out.getvalue()
