"""Pinned outputs: the masked trace and metrics of each benchmark workload.

A speed-up must not change what the planner does: every faster path
must reproduce these sha256 digests, recorded from the from-scratch
pricing of `andor`, byte for byte.

The benchmark's own contract is checked here too: each workload meets
the expectations `perfbench/harness.py` checks, and the layer trace of
`perfbench/tracer.py` still finds every name it patches (its import
fails otherwise) and leaves the run it traces unchanged.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from taskmotion.dsl import parse
from taskmotion.planner import (
    RunConfig,
    masked_metrics_text,
    masked_trace_text,
    run_scenario,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from harness import expectation  # noqa: E402
from tracer import Tracer, leaked_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# workload: (sha256 of the masked trace, sha256 of the masked metrics)
PINNED = {
    "hanoi_dual": (
        "7a8b2cb64efa085cd7012ba99a16e1694f84a9ca2e1834b88c8ad78d02b0c9a6",
        "23f89be6c3f3d313adaa1b5599db3a5119ecaffbcaefdd8b38961cd3048f7106"),
    "habitat": (
        "4d3f077ef8be22aa24e18b5d60fb6f99293733ce529cfdad1873385f7ea864fb",
        "3c51ead9c309504cd5e7fb2d7cda93d845b718421f83c32cc3081361a937fc20"),
    "habitat_unclearable": (
        "9d67453b5c93176401fed829383e6ce4c0c919e59e8140e45654f3f5aace2d71",
        "84c1864a5c9765208d0ffa2da7ac991cfc3506ac32c570a1308daf0a1655d644"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_masked_outputs_match_the_pinned_digests(name):
    result = run_scenario(parse(WORKLOADS[name].make_text()), RunConfig(seed=0))
    assert (sha256(masked_trace_text(result.trace)),
            sha256(masked_metrics_text(result.metrics))) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_each_workload_meets_the_benchmark_expectations(name):
    workload = WORKLOADS[name]
    scenario = parse(workload.make_text())
    result = run_scenario(scenario, RunConfig(seed=0))
    assert expectation(workload)(scenario, result) == []  # status, moves, extra check


def test_a_traced_run_matches_the_untraced_one_and_leaves_no_wrapper():
    scenario = parse(WORKLOADS["habitat_unclearable"].make_text())
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_scenario(scenario, RunConfig(seed=0))
    finally:
        tracer.remove()
    assert leaked_wrappers() == []
    assert tracer.take().calls["network.select"] > 0
    untraced = run_scenario(scenario, RunConfig(seed=0))
    assert masked_trace_text(traced.trace) == masked_trace_text(untraced.trace)
