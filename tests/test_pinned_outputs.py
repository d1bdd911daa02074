"""Pinned outputs: the masked trace and metrics of each benchmark workload.

A speed-up must not change what the planner does: every faster path
must reproduce these sha256 digests byte for byte. They were recorded
from the from-scratch pricing of `andor`, and recorded again when A*
began to break f-ties towards the deeper cell, which deliberately
changes paths and pop counts, for hanoi_dual again when the handover
pad moved away from peg A, which moves the pad's paths, and for
habitat_unclearable again when a run that ends unsolvable began to name
its rule in a `detail` field, and for both habitat workloads again when a
mounted arm began to be placed at its base's point plus its offset after
each drive, not at its old anchor plus the drive's displacement, which
differ by float noise that can move an anchor into the next grid cell.

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
        "d72cad0b5c029e482513bacfb2fb5ba6c4b1486291978a1c585dbd1633596abb",
        "d27ee32eb8a6efb6532fe6d48e3bde9a9da2f2c9592ed2c19ce012d5301d97c1"),
    "habitat": (
        "ec563dd042b31d777399dd32bdec75ac0994038a7a243bf45e0bf58318bfeab6",
        "6f6723d6934152fccedeca54134ce868d592b8de59bda76376b983669b078019"),
    "habitat_unclearable": (
        "f4c7181cd9cc2cb9a099803a58b8d7e3ecf3f1cb9fb74782971f56eabf01f847",
        "8e400b84cfe16f8a634791e01a715874b5d7032b8c54a5b4af140af12dd0f45f"),
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
