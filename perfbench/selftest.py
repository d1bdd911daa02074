"""Fast self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs a 3-disk two-arm Hanoi and one habitat instance through the same
code paths as the benchmark, with tracing off and on, and checks that
every metric named in BENCHMARK.json is printed with its unit, that a
wrong expectation is counted as a failure, that the instance bound turns
an over-deadline or over-memory instance into a failure, and that
tracing restores every wrapped function. Exits 1 on the first failure.
"""

from __future__ import annotations

import io
import json
import sys
import time
from dataclasses import replace

from run import ROOT, import_program

if not import_program():
    sys.exit(f"cannot import the planner from {ROOT / 'src'}")

from harness import Bound, SpeedProbe, emit, measure, run_instance  # noqa: E402
from tracer import leaked_wrappers  # noqa: E402
from workloads import WORKLOADS, Workload, hanoi_text  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAR = 60.0  # seconds: a deadline no tiny instance comes near

TINY_HANOI = Workload("tiny_hanoi", lambda: hanoi_text(3), "goal_achieved", 9,
                      lambda: hanoi_text(3))
ONE_HABITAT = WORKLOADS["habitat"]


def require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def printed(workload: Workload, trace: bool) -> dict:
    report = measure(workload, 7, 0.0, trace, time.perf_counter() + FAR)
    out = io.StringIO()
    emit(report, 7, out)
    return json.loads(out.getvalue().splitlines()[-1])


def test_every_metric_printed_with_its_unit():
    for workload in (TINY_HANOI, ONE_HABITAT):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = printed(workload, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == want, f"{workload.name} {key}: printed {got}, "
                                 f"BENCHMARK.json names {want}")
            require(result["correct"] and result["failed"] == 0,
                    f"{workload.name} trace={trace}: {result}")
            require(all(isinstance(m["value"], float)
                        for m in result["metrics"].values()),
                    f"{workload.name}: a metric is not a number")
            require(not leaked_wrappers(), "tracer left wrappers installed")


def test_wrong_status_raises_failed_share():
    wrong = replace(TINY_HANOI, status="unsolvable")
    report = measure(wrong, 7, 0.0, False, time.perf_counter() + FAR)
    require(report.failed_share == 1.0, f"failed_share {report.failed_share}")
    require(printed(TINY_HANOI, False)["failed"] == 0, "right status fails")


def test_bound_fails_the_instance():
    # One habitat instance outlasts several bound ticks.
    text = ONE_HABITAT.make_text()
    late = run_instance(text, 7, None,
                        Bound(time.perf_counter() - 1.0, SpeedProbe()))
    heavy = run_instance(text, 7, None,
                         Bound(time.perf_counter() + FAR, SpeedProbe(), memory_mb=1.0))
    for inst in (late, heavy):
        require(inst.bounded and inst.problems, f"not bounded: {inst.problems}")


def test_seeds_pass_over_defect_residues():
    hanoi = WORKLOADS["hanoi_dual"]
    require(hanoi.seeds(34, 2) == [34, 36], f"hanoi seeds {hanoi.seeds(34, 2)}")
    require(hanoi.seeds(64 + 43, 2) == [64 + 43, 64 + 45],
            f"hanoi seeds {hanoi.seeds(64 + 43, 2)}")
    require(ONE_HABITAT.seeds(35, 2) == [35, 36], "habitat skips a seed")


def main() -> int:
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except AssertionError as exc:
                print(f"{name}: FAIL  {exc}")
                return 1
            print(f"{name}: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
