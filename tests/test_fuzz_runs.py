"""The whole run loop on random valid scenarios (`scn_fuzz`).

Every run must end in one of the three outcomes, conserve the objects,
leave no stacking cycle and repeat byte for byte. The digest pins the
masked outputs of a fixed range of seeds, so a change to graph building,
pricing or stage composition that alters any random run shows here, not
only on the three benchmark workloads. A second digest pins the blocked
family, whose runs reach the obstruction diagnosis and grow rearrangement
graphs, which the first family never does.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from taskmotion import world as world_module
from taskmotion.dsl import parse, serialize
from taskmotion.planner import (
    FinalStatus,
    RunConfig,
    masked_metrics_text,
    masked_trace_text,
    run_scenario,
)
from scn_fuzz import blocked_scenario, fuzz_scenario

# sha256 over each run's masked trace, then its masked metrics, seed by seed.
FUZZ_SEEDS = range(200)
FUZZ_DIGEST = "113e4652125c21b01666595497b8505ec2dd0b32a52e0e803f214757a91238ca"
BLOCKED_SEEDS = range(50)
BLOCKED_DIGEST = "acfb159c24d244a1b5f9ae7675758874972c193a755a502af26cc759d06bf026"


def fuzz_run(seed: int):
    return run_scenario(fuzz_scenario(seed), RunConfig(depth_cap=12, seed=seed))


def blocked_run(seed: int):
    return run_scenario(blocked_scenario(seed), RunConfig(depth_cap=30, seed=seed))


def masked_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(masked_trace_text(result.trace).encode("utf-8"))
        digest.update(masked_metrics_text(result.metrics).encode("utf-8"))
    return digest.hexdigest()


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
    assert masked_digest(fuzz_run(seed) for seed in FUZZ_SEEDS) == FUZZ_DIGEST


def test_no_random_run_loops_to_a_depth_cap_of_300():
    """A run that would instantiate a graph of the same stages again in a
    state it did so before ends `unsolvable`, however high the cap; in the
    blocked family such a loop can be made of rearrangements alone."""
    for seed in FUZZ_SEEDS:
        result = run_scenario(fuzz_scenario(seed), RunConfig(depth_cap=300, seed=seed))
        assert result.status is not FinalStatus.DEPTH_LIMIT, seed
    for seed in BLOCKED_SEEDS:
        result = run_scenario(blocked_scenario(seed), RunConfig(depth_cap=300, seed=seed))
        assert result.status is not FinalStatus.DEPTH_LIMIT, seed


def test_an_arc_without_actions_is_never_executed():
    """Such an arc fails to ground, so no `execute` event, and no move,
    follows its selection."""
    selected_empty = 0
    for result in [*map(fuzz_run, FUZZ_SEEDS), *map(blocked_run, BLOCKED_SEEDS)]:
        events = [e for e in result.trace if e["event"] in ("select", "execute")]
        for event, after in zip(events, events[1:]):
            if event["event"] == "select" and not event["actions"]:
                selected_empty += 1
                assert after["event"] != "execute", result.trace
    assert selected_empty > 0


def test_blocked_scenarios_are_valid_scenario_text():
    for seed in BLOCKED_SEEDS:
        scenario = blocked_scenario(seed)
        assert parse(serialize(scenario)) == scenario, seed


def test_blocked_runs_match_the_pinned_digest(monkeypatch):
    """The pin covers the diagnosis: at least a quarter of the runs call
    it, and at least one composes a rearrangement graph."""
    diagnose = world_module._diagnose
    diagnosed = set()
    seed = None

    def recording(*args):
        diagnosed.add(seed)
        return diagnose(*args)

    monkeypatch.setattr(world_module, "_diagnose", recording)
    results = []
    for seed in BLOCKED_SEEDS:
        results.append(blocked_run(seed))
    assert masked_digest(results) == BLOCKED_DIGEST
    assert len(diagnosed) >= len(BLOCKED_SEEDS) / 4
    assert any(event.get("reason") == "motion_failure"
               for result in results for event in result.trace)
