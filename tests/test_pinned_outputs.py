"""Pinned outputs: the masked trace and metrics of each benchmark workload.

A speed-up must not change what the planner does: every faster path
must reproduce these sha256 digests byte for byte. They were recorded
from the from-scratch pricing of `andor`, and recorded again when A*
began to break f-ties towards the deeper cell, which deliberately
changes paths and pop counts.

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
        "f9a04dfbadf8359b35b2ef219195280b1d560589fbcb5698367b1e9031fc90e8",
        "4ed9ded9b01548ff5ab2836eb083512c86bcb82fde9740621157e6a84c985b04"),
    "habitat": (
        "3deab93a7021ab4d2b46f417de6f5fd2fe429eb433b06b2e8604cf1c42475c00",
        "0fd864b2d8b2442337dad82ca894bafbd089cc57d7a9cad86a4cde65775ab4b3"),
    "habitat_unclearable": (
        "4a626ee970798a26ff901525f8b81deb910d5f2c5ddfa9d8d98a46cf992d9301",
        "7c1cdf1714e6d2152015a7cba21cdf6378eb337e3acb67379908fb61258f7d16"),
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
