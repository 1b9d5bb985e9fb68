"""Spans around the public functions of each wildrep module.

The modules call each other through names bound by ``from .x import name``,
so wrapping a function in its defining module alone would miss most calls.
``install`` therefore rebinds the wrapper under every attribute of every
loaded ``wildrep`` module that holds the original function, and
``uninstall`` puts the originals back.  A wrapped name that no longer exists
(a later refactor may merge or delete it) is recorded as absent instead of
raising.

Spans are kept in memory as lists and turned into per-layer numbers by
``layer_metrics`` once the run is over; nothing is written while timing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs that get a span; the metric prefix is
# "<module>.<function>".  cli.main is the root span of every operation.
WRAPPED = (
    ("exactfield", "rank"),
    ("exactfield", "rref"),
    ("polyspace", "mult_map"),
    ("polyspace", "mult_map_on_X"),
    ("polyspace", "quotient_piece"),
    ("presentation", "sample_phi"),
    ("presentation", "sheaf_surjectivity_certificate"),
    ("presentation", "build_kernel_bundle"),
    ("cohomology", "cohomology_table_exact"),
    ("restriction", "make_ci_variety"),
    ("restriction", "restricted_cohomology_table"),
    ("restriction", "vanishing_certificate"),
    ("moduli", "intertwiner_system"),
    ("moduli", "stabilizer_dimension"),
    ("moduli", "wildness_certificate"),
    ("cli", "main"),
    ("cli", "serialize_report"),
)
ROOT = "cli.main"

# span fields
NAME, START, END, PARENT, OP, OK, WORK = range(7)


def rank_madds(rows: int, cols: int, r: int) -> int:
    """Multiply-adds of dense right-looking elimination, computed, not measured.

    Pivot k (k = 0..r-1) updates the rows - 1 - k rows below it over the
    cols - k trailing columns: sum_k (rows - 1 - k)(cols - k).  The count
    depends only on the shape and the returned rank, so it is the same for
    any elimination routine and madds_per_s compares them fairly.
    """
    if r <= 0:
        return 0
    s1 = r * (r - 1) // 2
    s2 = (r - 1) * r * (2 * r - 1) // 6
    return r * (rows - 1) * cols - (rows - 1 + cols) * s1 + s2


def _rank_work(args, result):
    m = args[0]
    return rank_madds(m.rows, m.cols, int(result))


def _cells_work(args, result):
    return result.rows * result.cols


# extra work count attached to a span on normal return
WORK_OF = {
    "exactfield.rank": _rank_work,
    "polyspace.mult_map": _cells_work,
    "polyspace.mult_map_on_X": _cells_work,
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.absent: list[str] = []
        self.rebound: dict[str, list[str]] = {}
        self.uncounted: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        work_of = WORK_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, 0]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[OK] = True
            if work_of is not None:
                try:
                    span[WORK] = work_of(args, result)
                except (AttributeError, TypeError, ValueError):
                    # a changed signature loses the count, not the operation
                    self.uncounted.add(name)
            return result

        return wrapper

    def install(self) -> None:
        pkg = importlib.import_module("wildrep")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "wildrep" or k.startswith("wildrep."))]
        for mod_name, fn_name in WRAPPED:
            name = f"{mod_name}.{fn_name}"
            home = getattr(pkg, mod_name, None)
            original = getattr(home, fn_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        self.rebound.setdefault(name, []).append(mod.__name__)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


def op_counters(spans, op: int) -> dict[str, tuple[int, int]]:
    """Exact per-op counts: (calls, work) for every span name of one op."""
    out: dict[str, list[int]] = {}
    for s in spans:
        if s[OP] == op:
            c = out.setdefault(s[NAME], [0, 0])
            c[0] += 1
            c[1] += s[WORK]
    return {k: tuple(v) for k, v in out.items()}


def layer_metrics(spans, n_ops: int, op_wall_s: float) -> dict[str, float]:
    """Per-op averages of calls, self time and work, plus run-level ratios.

    Self time is a span's duration minus the durations of its direct
    children (spans nest strictly: one thread, one operation at a time).
    trace.coverage is the share of op wall time covered by the children of
    the root span.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    rank_max_s = 0.0
    accepted = 0
    below_root = 0.0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
        work[name] = work.get(name, 0) + s[WORK]
        if name == ROOT:
            below_root += child_s[i]
        elif name == "exactfield.rank":
            rank_max_s = max(rank_max_s, dur)
        elif name == "presentation.build_kernel_bundle" and s[OK]:
            accepted += 1
    out: dict[str, float] = {}
    for mod_name, fn_name in WRAPPED:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.calls"] = calls.get(name, 0) / n_ops
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n_ops
    for name in ("polyspace.mult_map", "polyspace.mult_map_on_X"):
        out[f"{name}.cells"] = work.get(name, 0) / n_ops
    rank_madds, rank_s = work.get("exactfield.rank", 0), self_s.get("exactfield.rank", 0.0)
    out["exactfield.rank.max_s"] = rank_max_s
    out["exactfield.rank.madds"] = rank_madds / n_ops
    out["exactfield.rank.madds_per_s"] = rank_madds / rank_s if rank_s else 0.0
    attempts = calls.get("presentation.sample_phi", 0)
    out["presentation.accept_ratio"] = accepted / attempts if attempts else 0.0
    out["trace.coverage"] = below_root / op_wall_s if op_wall_s else 0.0
    return out
