"""wildrep benchmark: closed-loop CLI operations, end to end and per layer.

    python3 perfbench/run.py --workload ambient-table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client, one process, one operation at a time: each operation is one
in-process call ``wildrep.cli.main(argv)`` with JSON output captured in
memory, and the next starts when it returns.  Every operation gets its own
``--seed``, derived from the workload seed, and its output is checked
against a closed-form oracle after the loop.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs the same operations with a span
around each public function of every module and prints per-layer metrics.
The last line of standard output is one JSON object; the metric names and
units are the ones listed in BENCHMARK.json.  ``--workload all`` runs every
workload in both modes, each in its own interpreter.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracing import Tracer, layer_metrics, op_counters
from workloads import GOLDEN_ARGV, GOLDEN_FILE, WORKLOADS, timed_op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# fresh interpreters per untraced run, one cold op each, spread over the loop
MIN_COLD_PROBES, MAX_COLD_PROBES = 5, 15
MIN_OPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def log(line: str) -> None:
    print(line, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def cap_blas_threads(nproc: int) -> None:
    """Never let a BLAS pool exceed the CPUs this process may use."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def op_seed(workload_seed: int, i: int) -> int:
    """Operation i's CLI seed: successive seeds from a hashed base."""
    digest = hashlib.sha256(f"wildrep-bench:{workload_seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") + i


def probe(argv) -> tuple[float, float, int, str]:
    """One operation in a fresh interpreter: (setup_s, op_s, exit code, output)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"probe did not finish in {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    r = json.loads(proc.stdout.splitlines()[-1])
    return r["imported_at"] - start, r["op_s"], r["code"], r["out"]


def replay_golden() -> float:
    """Run the golden config in a fresh interpreter; its bytes must match."""
    with open(os.path.join(ROOT, GOLDEN_FILE), "rb") as fh:
        golden = fh.read()
    setup_s, _, code, out = probe(GOLDEN_ARGV)
    if code != 0 or out.encode() != golden:
        raise BenchError(f"golden replay differs from {GOLDEN_FILE}")
    return setup_s


def loop(cli, workload, seed: int, seconds: float, tracer: Tracer | None, between=()):
    """Closed loop for `seconds` of operation time, at least MIN_OPS ops.

    The callables in `between` run at evenly spaced points inside the loop,
    so what they measure sees the same machine as the loop does; their time
    is not operation time.  Outputs are checked after the loop.
    """
    ops = []
    busy = 0.0
    pending = [(seconds * (j + 1) / (len(between) + 1), fn) for j, fn in enumerate(between)]
    while len(ops) < MIN_OPS or busy < seconds:
        while pending and busy >= pending[0][0]:
            pending.pop(0)[1]()
        if tracer is not None:
            tracer.op = len(ops)
        ops.append(timed_op(cli.main, workload.op_argv(op_seed(seed, len(ops)))))
        busy += ops[-1][0]
    for _, fn in pending:  # marks that the last operation overran
        fn()
    return ops, busy


def check(workload, ops, label: str, failures: dict[str, str]) -> None:
    for i, (_, code, out) in enumerate(ops):
        reason = workload.verify(code, out)
        if reason is not None:
            failures[f"{label} {i}"] = reason


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def blas_info(np) -> tuple[str, int | None]:
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return name, int(getattr(lib, fn)())
    return name, None


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np

    blas, threads = blas_info(np)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
    }


def run_untraced(cli, workload, seed, seconds):
    setup = [replay_golden()]
    cold = []

    def cold_op(i):
        setup_s, *op = probe(workload.op_argv(op_seed(seed, i)))
        setup.append(setup_s)
        cold.append(op)

    # the first probe's cost sizes the rest: about a third of `seconds`
    t0 = time.perf_counter()
    cold_op(0)
    n = int(seconds / 3 / (time.perf_counter() - t0))
    n = max(MIN_COLD_PROBES, min(MAX_COLD_PROBES, n))
    probes = [functools.partial(cold_op, i) for i in range(1, n)]
    ops, busy = loop(cli, workload, seed, seconds, None, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures: dict[str, str] = {}
    check(workload, ops, "op", failures)
    check(workload, cold, "cold op", failures)
    times = [dt for dt, _, _ in ops]
    metrics = {
        "ops_per_s": len(ops) / busy,
        "op_s.p50": statistics.median(times),
        "op_s.p90": p90(times),
        "first_op_s": statistics.median(dt for dt, _, _ in cold),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = len(ops) + len(cold)
    log(f"fail_ratio {len(failures) / attempted:.4f} ({len(failures)}/{attempted})")
    log(f"op_s over {len(ops)} ops in {busy:.2f} s; first_op_s median of {len(cold)} "
        f"fresh interpreters; setup_s median of {len(setup)}")
    return attempted, failures, metrics


def run_traced(cli, workload, seed, seconds):
    replay_golden()
    tracer = Tracer()
    tracer.install()
    try:
        ops, _ = loop(cli, workload, seed, seconds, tracer)
    finally:
        tracer.uninstall()
    failures: dict[str, str] = {}
    check(workload, ops, "op", failures)
    times = [dt for dt, _, _ in ops]
    # the same operations untraced, for byte equality and tracing overhead;
    # op 0 ran cold in the loop, so the overhead compares ops 1.. only
    plain = []
    budget = time.perf_counter() + seconds / 4
    while len(plain) < len(ops) and (len(plain) < MIN_OPS or time.perf_counter() < budget):
        i = len(plain)
        plain.append(timed_op(cli.main, workload.op_argv(op_seed(seed, i))))
        if plain[i][1:] != ops[i][1:]:
            failures[f"replay {i}"] = "untraced output differs from traced output"
    # computed counters must repeat exactly: trace op 0 a second time
    again = Tracer()
    again.install()
    try:
        again.op = 0
        timed_op(cli.main, workload.op_argv(op_seed(seed, 0)))
    finally:
        again.uninstall()
    repeat_ok = op_counters(tracer.spans, 0) == op_counters(again.spans, 0)
    if not repeat_ok:
        log("FLAG: computed counters differ between two traced runs of op 0")
    metrics = layer_metrics(tracer.spans, len(ops), sum(times))
    metrics["trace.overhead_s"] = statistics.median(times[1 : len(plain)]) - statistics.median(
        dt for dt, _, _ in plain[1:]
    )
    metrics["trace.absent"] = len(tracer.absent)
    log(f"spans {len(tracer.spans)} over {len(ops)} ops; untraced replays {len(plain)}")
    log(f"absent: {' '.join(tracer.absent) or 'none'}; "
        f"work not counted: {' '.join(sorted(tracer.uncounted)) or 'none'}")
    log("wrapped " + json.dumps(tracer.rebound))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.jsonl"), "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return len(ops) + len(plain), failures, metrics, repeat_ok


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace]
            code = max(code, subprocess.run(cmd).returncode)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "wildrep", "cli.py")):
        print(f"no wildrep sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    sys.path.insert(0, SRC)
    from wildrep import cli

    workload = WORKLOADS[args.workload]
    log("env " + json.dumps(environment(nproc), sort_keys=True))
    log(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"wildrep {' '.join(workload.argv)} --seed {op_seed(args.seed, 0)}+i")
    try:
        if args.trace:
            attempted, failures, values, correct = run_traced(cli, workload, args.seed, args.seconds)
        else:
            attempted, failures, values = run_untraced(cli, workload, args.seed, args.seconds)
            correct = True
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for label, reason in failures.items():
        log(f"FAIL {label}: {reason}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        log(f"  {m['name']:<48} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
