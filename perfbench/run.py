"""Benchmark of the taskmotion planner: time to an outcome, set-up time
and peak memory, with an optional outside-in layer trace.

    python3 perfbench/run.py --workload hanoi_dual --seed 1 --seconds 40 --trace 0

Run it from the repository root. It imports the planner from `src/` of
the checkout it sits in and exits 2 when that is missing. One process,
one thread. `--trace 0` prints the end-to-end metrics; `--trace 1`
alternates an untraced and a traced instance of the same seed and prints
the per-layer metrics of the traced ones. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 180.0  # every run must exit within this
RUN_MARGIN_S = 30.0  # kept back from the limit for reporting and exit


def import_program() -> bool:
    """Put this checkout's `src/` first on the path; True if the planner
    imports from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        import taskmotion
    except ImportError:
        return False
    return Path(taskmotion.__file__).resolve().parent == src / "taskmotion"


def main(argv: list[str] | None = None) -> int:
    args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args.add_argument("--workload", required=True)
    args.add_argument("--seed", type=int, required=True)
    args.add_argument("--seconds", type=float, required=True)
    args.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = args.parse_args(argv)
    if not import_program():
        print(f"cannot import the planner from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from harness import emit, measure
    from workloads import WORKLOADS

    if opts.workload not in WORKLOADS:
        print(f"unknown workload {opts.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    report = measure(WORKLOADS[opts.workload], opts.seed, opts.seconds,
                     bool(opts.trace), STARTED + RUN_LIMIT_S - RUN_MARGIN_S)
    emit(report, opts.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
