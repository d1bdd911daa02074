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
import sys
from pathlib import Path

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
from taskmotion.scenarios import gen_hanoi
from scn_fuzz import blocked_scenario, fuzz_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

# sha256 over each run's masked trace, then its masked metrics, seed by seed.
FUZZ_SEEDS = range(200)
FUZZ_DIGEST = "13cef1e1757f7586f68135c8cb9544623e790493cfa3510a5f49b4a786e2c2da"
BLOCKED_SEEDS = range(50)
BLOCKED_DIGEST = "7c6bb05f109f6a87dc7e6b8a1cf70f657e02016c2405933a1ec0ec4596bb2836"


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


# The rules that end a run short of its goal, as the `detail` of its
# result event and metrics begins.
END_RULES = ("cycle: ", "depth cap: ", "goal names unknown entities: ")


def test_every_run_short_of_its_goal_names_the_rule_that_ended_it():
    """An unsolvable or depth-limited run's result event and metrics carry
    one `detail`, naming exactly one rule; a solved run's carry none."""
    results = [run_scenario(parse(WORKLOADS["habitat_unclearable"].make_text())),
               run_scenario(gen_hanoi(3), RunConfig(depth_cap=2)),
               *map(fuzz_run, FUZZ_SEEDS), *map(blocked_run, BLOCKED_SEEDS)]
    ended = set()
    for result in results:
        detail = result.trace[-1].get("detail")
        assert result.metrics.get("detail") == detail
        if result.status is FinalStatus.GOAL_ACHIEVED:
            assert detail is None
            continue
        named = [rule for rule in END_RULES if rule in detail]
        assert len(named) == 1 and detail.startswith(named[0]), detail
        ended.add((result.status, named[0]))
    assert ended == {(FinalStatus.UNSOLVABLE, "cycle: "), (FinalStatus.DEPTH_LIMIT, "depth cap: ")}
    assert results[0].trace[-1]["detail"] == "cycle: no_feasible_state expansion repeats a state"
    assert results[1].trace[-1]["detail"] == "depth cap: network depth 2 is at its cap 2"


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
