"""The whole run loop on random valid scenarios (`scn_fuzz`).

Every run must end in one of the three outcomes, conserve the objects,
leave no stacking cycle and repeat byte for byte. The digest pins the
masked outputs of a fixed range of seeds, so a change to graph building,
pricing or stage composition that alters any random run shows here, not
only on the three benchmark workloads.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from taskmotion.planner import (
    FinalStatus,
    RunConfig,
    masked_metrics_text,
    masked_trace_text,
    run_scenario,
)
from scn_fuzz import fuzz_scenario

# sha256 over each run's masked trace, then its masked metrics, seed by seed.
FUZZ_SEEDS = range(200)
FUZZ_DIGEST = "0af29b65135047bbdfd7af122db456da96aca33bde060f107a0d4c8c4f5c61ab"


def fuzz_run(seed: int):
    return run_scenario(fuzz_scenario(seed), RunConfig(depth_cap=12, seed=seed))


def has_stacking_cycle(world) -> bool:
    for oid in world.objects:
        seen = set()
        while oid in world.objects and oid not in seen:
            seen.add(oid)
            oid = world.objects[oid].stack_on
        if oid in seen:
            return True
    return False


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_random_scenario_runs_to_an_outcome_the_same_way_twice(seed):
    first = fuzz_run(seed)
    assert first.status in set(FinalStatus)
    assert (first.trace[-1]["event"], first.trace[-1]["status"]) == (
        "result", first.status.value)
    assert set(first.world.objects) == set(fuzz_scenario(seed).objects)
    assert not has_stacking_cycle(first.world)
    second = fuzz_run(seed)
    assert masked_trace_text(second.trace) == masked_trace_text(first.trace)
    assert masked_metrics_text(second.metrics) == masked_metrics_text(first.metrics)


def test_random_runs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for seed in FUZZ_SEEDS:
        result = fuzz_run(seed)
        digest.update(masked_trace_text(result.trace).encode("utf-8"))
        digest.update(masked_metrics_text(result.metrics).encode("utf-8"))
    assert digest.hexdigest() == FUZZ_DIGEST
