"""Child process of run.py: one fresh interpreter, one cold operation.

The parent reads ``time.perf_counter()`` (CLOCK_MONOTONIC, one clock for
every process on the machine) just before starting this interpreter, so
``imported_at`` minus that reading is the set-up a command line user pays
before any work.  The probe then runs its CLI arguments once, with the
module caches still empty, and reports the exit code, the seconds taken and
the output.

    PYTHONPATH=src python3 perfbench/probe.py <wildrep CLI arguments>
"""

import time

if __name__ == "__main__":
    import wildrep  # the import being timed

    imported_at = time.perf_counter()
    import json
    import sys

    from wildrep import cli
    from workloads import timed_op

    op_s, code, out = timed_op(cli.main, sys.argv[1:])
    print(json.dumps({"imported_at": imported_at, "op_s": op_s, "code": code, "out": out}))
