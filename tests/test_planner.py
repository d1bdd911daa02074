"""End-to-end runs of the planning loop on small hand-built scenarios.

The big benchmark scenarios get their own acceptance checks; here every
case is small enough to predict the exact depth, move count, and trace
shape by hand.
"""

import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from taskmotion import interface, planner
from taskmotion import world as world_module
from taskmotion.andor import GraphTemplate, HyperArc, NodeDecl, NodeKind
from taskmotion.domain import (
    ActionTemplate,
    Condition,
    Fact,
    MotionClass,
    PredicateDecl,
)
from taskmotion.dsl import AgentDecl, MarkerDecl, ObjDecl, Scenario, parse
from taskmotion.planner import (
    MODULE_ROWS,
    TABLE_COLUMNS,
    FinalStatus,
    RunConfig,
    mask_timing,
    masked_metrics_text,
    masked_trace_text,
    run_scenario,
    trace_text,
)
from taskmotion.scenarios import gen_habitat, gen_hanoi

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def fetch_scenario():
    """One arm moves one ball to one marker: a single-candidate run."""
    scn = Scenario("fetch", bounds=(-0.6, -0.6, 0.8, 0.8))
    scn.objects["ball"] = ObjDecl("ball", "circle", (0.03,), 0.0, 0.2, movable=True)
    scn.markers["start"] = MarkerDecl("start", 0.0, 0.2)
    scn.markers["home"] = MarkerDecl("home", 0.3, 0.0)
    scn.agents["arm"] = AgentDecl("arm", "arm", 0.0, 0.0, reach=0.5)
    scn.actions["deliver_ball"] = ActionTemplate(
        "deliver_ball", MotionClass.TRANSFER,
        preconditions=(Condition(Fact("at", ("ball", "start"))),),
        verb="transfer", manipulated="ball", source="start", dest="home")
    scn.goal = (Fact("at", ("ball", "home")),)
    scn.graph = GraphTemplate.of(
        nodes=(NodeDecl(1, NodeKind.ROOT, "ball delivered"),
               NodeDecl(2, NodeKind.FAILURE, "no delivery"),
               NodeDecl(3, NodeKind.LEAF, "at ball start"),
               NodeDecl(4, NodeKind.LEAF, "at ball home"),
               NodeDecl(5, NodeKind.INTERNAL, "deliver done")),
        arcs=(HyperArc(1, 1, (4,), weight=Fraction(0)),
              HyperArc(2, 5, (3,), actions=("deliver_ball",))))
    return scn


def blocked_scenario():
    """A movable wall seals the only path to the prize.

    The wall spans the full vertical extent of the workspace, so the
    grasp leg cannot route around it; the run must grow a relocation
    graph, park the wall aside, and come back for the prize.
    """
    scn = Scenario("blocked", bounds=(-1.0, -1.0, 1.0, 1.0))
    scn.objects["prize"] = ObjDecl("prize", "circle", (0.03,), 0.5, 0.0,
                                   movable=True)
    scn.objects["wall"] = ObjDecl("wall", "box", (0.08, 2.0), 0.3, 0.0,
                                  movable=True, blocks="arm")
    scn.markers["spot"] = MarkerDecl("spot", 0.5, 0.0)
    scn.markers["home"] = MarkerDecl("home", 0.0, -0.5)
    scn.markers["wallpos"] = MarkerDecl("wallpos", 0.3, 0.0)
    scn.markers["aside"] = MarkerDecl("aside", -0.5, 0.0)
    scn.agents["arm"] = AgentDecl("arm", "arm", 0.0, 0.0, reach=0.9)
    scn.actions["move_prize"] = ActionTemplate(
        "move_prize", MotionClass.TRANSFER,
        preconditions=(Condition(Fact("at", ("prize", "spot"))),),
        verb="transfer", manipulated="prize", source="spot", dest="home")
    scn.actions["relocate_wall"] = ActionTemplate(
        "relocate_wall", MotionClass.TRANSFER,
        preconditions=(Condition(Fact("at", ("wall", "wallpos"))),),
        verb="transfer", manipulated="wall", source="wallpos", dest="aside")
    scn.goal = (Fact("at", ("prize", "home")),)
    scn.graph = GraphTemplate.of(
        nodes=(NodeDecl(1, NodeKind.ROOT, "prize home"),
               NodeDecl(2, NodeKind.FAILURE, "no route"),
               NodeDecl(3, NodeKind.LEAF, "at prize spot"),
               NodeDecl(4, NodeKind.LEAF, "at prize home"),
               NodeDecl(5, NodeKind.INTERNAL, "move prize done")),
        arcs=(HyperArc(1, 1, (4,), weight=Fraction(0)),
              HyperArc(2, 5, (3,), actions=("move_prize",))))
    scn.stages["clear_wall"] = GraphTemplate.of(
        nodes=(NodeDecl(1, NodeKind.ROOT, "wall cleared"),
               NodeDecl(2, NodeKind.FAILURE, "wall stuck"),
               NodeDecl(3, NodeKind.LEAF, "at wall wallpos")),
        arcs=(HyperArc(1, 1, (3,), actions=("relocate_wall",)),))
    return scn


def test_goal_already_true_needs_no_moves(monkeypatch):
    calls = recorded_plan_calls(monkeypatch)
    scn = fetch_scenario()
    scn.goal = (Fact("at", ("ball", "start")),)
    res = run_scenario(scn)
    assert res.status is FinalStatus.GOAL_ACHIEVED
    assert res.depth == 1
    assert res.moves == 0
    assert res.steps == []
    assert calls == [] and res.metrics["plan_calls"] == 0


def test_single_move_run():
    res = run_scenario(fetch_scenario())
    assert res.status is FinalStatus.GOAL_ACHIEVED
    assert res.depth == 1  # goal seen before any re-expansion
    assert res.moves == 1
    assert [s.action for s in res.steps] == ["deliver_ball"]
    assert all(s.feasible for s in res.steps)
    ball = res.world.objects["ball"]
    assert (ball.x, ball.y) == (0.3, 0.0)
    assert res.world.clock > 0.0


def test_grounding_failure_suppresses_and_falls_back():
    scn = fetch_scenario()
    # A decoy option with a lower arc id grabs priority, but its object
    # sits outside every arm's reach, so grounding must reject it.
    scn.objects["meteor"] = ObjDecl("meteor", "circle", (0.03,), 0.6, 0.6,
                                    movable=True)
    scn.actions["deliver_meteor"] = ActionTemplate(
        "deliver_meteor", MotionClass.TRANSFER,
        verb="transfer", manipulated="meteor", dest="home")
    scn.graph = GraphTemplate.of(
        nodes=(NodeDecl(1, NodeKind.ROOT, "ball delivered"),
               NodeDecl(2, NodeKind.FAILURE, "no delivery"),
               NodeDecl(3, NodeKind.LEAF, "at ball start"),
               NodeDecl(4, NodeKind.LEAF, "at ball home"),
               NodeDecl(5, NodeKind.INTERNAL, "meteor plan"),
               NodeDecl(6, NodeKind.INTERNAL, "ball plan")),
        arcs=(HyperArc(1, 1, (4,), weight=Fraction(0)),
              HyperArc(2, 5, (3,), actions=("deliver_meteor",)),
              HyperArc(3, 6, (3,), actions=("deliver_ball",))))
    res = run_scenario(scn)
    assert res.status is FinalStatus.GOAL_ACHIEVED
    assert res.moves == 1
    suppressions = [e for e in res.trace if e["event"] == "suppress"]
    assert len(suppressions) == 1
    assert suppressions[0]["label"] == "meteor plan"
    assert suppressions[0]["reason"] == "grounding"
    selected = [e["label"] for e in res.trace if e["event"] == "select"]
    assert selected == ["meteor plan", "ball plan"]


ARM_TRANSIT_TEXT = """scenario arm_transit

OBJECTS
bounds -1 -1 1 1
marker far at 0.5 0

AGENTS
arm lifter at 0 0 reach 0.6

PREDICATES
pred walked 0
pred ready 0

ACTIONS
action walk transit
  agent lifter
  area far
end

INIT
ready

GOAL
walked

GRAPH
node 1 root "walked"
node 2 failure "stuck"
node 3 leaf "walked"
node 4 internal "walk done"
node 5 leaf "ready"
arc 1 parent 1 children 3 weight 1
arc 2 parent 4 children 5 weight 1 actions walk
"""


def test_a_transit_bound_to_an_arm_fails_grounding():
    """A transit moves a base; bound to an arm it must not move the arm's
    anchor (it once did, and the run looped to the depth cap)."""
    res = run_scenario(parse(ARM_TRANSIT_TEXT))
    assert res.status is FinalStatus.UNSOLVABLE
    assert res.moves == 0
    assert res.world.agents["lifter"].anchor == (0.0, 0.0)
    suppressions = [e for e in res.trace if e["event"] == "suppress"]
    assert [(e["label"], e["reason"]) for e in suppressions] == [("walk done", "grounding")]


def test_obstruction_grows_rearrangement_graph(monkeypatch):
    calls = recorded_plan_calls(monkeypatch)
    res = run_scenario(blocked_scenario())
    assert res.status is FinalStatus.GOAL_ACHIEVED
    assert res.depth == 3  # main, relocation, main again
    assert res.moves == 2
    expands = [e for e in res.trace if e["event"] == "expand"]
    reasons = [e["reason"] for e in expands]
    assert reasons == ["bootstrap", "motion_failure", "stage_complete"]
    assert expands[1]["obstructors"] == ["wall"]
    failed = [e for e in res.trace if e["event"] == "step" and not e["feasible"]]
    assert len(failed) == 1
    assert failed[0]["action"] == "move_prize"
    assert failed[0]["attempts"] >= 1
    prize = res.world.objects["prize"]
    assert (prize.x, prize.y) == (0.0, -0.5)
    wall = res.world.objects["wall"]
    assert abs(wall.x - -0.5) <= 1e-9 and abs(wall.y) <= 1e-9
    attempts = res.metrics["attempts"]
    assert sum(attempts.values()) == res.metrics["plan_calls"] == len(calls)


def test_unreachable_goal_is_reported_unsolvable():
    scn = fetch_scenario()
    scn.predicates["blessed"] = PredicateDecl("blessed", 1)
    scn.goal = (Fact("blessed", ("ball",)),)
    scn.graph = GraphTemplate.of(
        nodes=(NodeDecl(1, NodeKind.ROOT, "blessing"),
               NodeDecl(2, NodeKind.FAILURE, "no blessing"),
               NodeDecl(3, NodeKind.LEAF, "blessed ball")),
        arcs=(HyperArc(1, 1, (3,), weight=Fraction(0)),))
    res = run_scenario(scn)
    assert res.status is FinalStatus.UNSOLVABLE
    assert res.moves == 0
    assert res.depth == 2  # one retry, then the repeat state is recognised


def test_goal_about_unknown_entity_is_unsolvable():
    scn = fetch_scenario()
    scn.goal = (Fact("at", ("ghost", "home")),)
    res = run_scenario(scn)
    assert res.status is FinalStatus.UNSOLVABLE
    assert res.depth == 0
    assert res.trace[-1]["status"] == "unsolvable"


def test_depth_cap_stops_runaway_growth():
    res = run_scenario(gen_hanoi(3, omnipotent=True), RunConfig(depth_cap=2))
    assert res.status is FinalStatus.DEPTH_LIMIT
    assert res.depth == 2


@pytest.mark.parametrize("cap", [1, 3, 5])
def test_depth_cap_is_the_most_graphs_the_network_holds(cap):
    res = run_scenario(gen_hanoi(3, omnipotent=True), RunConfig(depth_cap=cap))
    assert res.status is FinalStatus.DEPTH_LIMIT
    assert res.depth == cap


@pytest.mark.parametrize("cap", [0, -1])
def test_depth_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match="depth cap"):
        run_scenario(gen_hanoi(3, omnipotent=True), RunConfig(depth_cap=cap))


def test_rejected_queries_count_as_attempts():
    """A query the world rejects is a plan call, so it is an attempt too."""
    scn = gen_hanoi(3, omnipotent=True)
    arm = scn.agents["arm_solo"]
    scn.agents["arm_solo"] = replace(arm, y=scn.bounds[3] + 0.1)
    res = run_scenario(scn)
    assert res.status is FinalStatus.UNSOLVABLE
    assert res.metrics["plan_calls"] > 0
    assert sum(res.metrics["attempts"].values()) == res.metrics["plan_calls"]


def counted(calls, key, fn):
    """`fn`, adding one to `calls[key]` on each call."""
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("make", [lambda: gen_hanoi(3), gen_habitat],
                         ids=["hanoi3_dual", "habitat"])
def test_loop_snapshots_once_per_world_state(make, monkeypatch):
    """One snapshot at the start and one after each dispatch, no more."""
    calls = {"snapshot": 0, "dispatch": 0}
    monkeypatch.setattr(planner, "snapshot", counted(calls, "snapshot", planner.snapshot))
    monkeypatch.setattr(planner, "dispatch", counted(calls, "dispatch", planner.dispatch))
    res = run_scenario(make())
    assert res.status is FinalStatus.GOAL_ACHIEVED
    assert calls["dispatch"] > 0
    assert calls["snapshot"] == calls["dispatch"] + 1


@pytest.mark.parametrize("name,derivations", [
    ("hanoi_dual", 85), ("habitat", 39), ("habitat_unclearable", 38)])
def test_each_world_derives_its_snapshot_once(name, derivations, monkeypatch):
    """The initial world and each world `execute` returns derive their
    state once, however often the loop, dispatch and planning read it."""
    calls = {"derive": 0, "execute": 0}
    monkeypatch.setattr(world_module, "_derive_state",
                        counted(calls, "derive", world_module._derive_state))
    monkeypatch.setattr(interface, "execute", counted(calls, "execute", interface.execute))
    run_scenario(parse(WORKLOADS[name].make_text()), RunConfig(seed=0))
    assert calls["derive"] == calls["execute"] + 1 == derivations


def recorded_plan_calls(monkeypatch):
    """Patch the planner's `plan_motion` to record each call's arguments
    and its result or the exception it raised."""
    calls = []
    plan = interface.plan_motion

    def recording(*args):
        try:
            calls.append((args, plan(*args)))
        except world_module.WorldError as exc:
            calls.append((args, exc))
            raise
        return calls[-1][1]

    monkeypatch.setattr(interface, "plan_motion", recording)
    return calls


def without_elapsed(outcome):
    if isinstance(outcome, world_module.MotionResult):
        return replace(outcome, elapsed=0.0)
    return (type(outcome), str(outcome))


def fresh_outcome(world, q):
    try:
        return world_module.plan_motion(world, q)
    except world_module.WorldError as exc:
        return exc


@pytest.mark.parametrize("scenario,seed", [
    (lambda: gen_hanoi(3), 0),
    (lambda: parse(WORKLOADS["hanoi_dual"].make_text()), 3),
    (lambda: parse(WORKLOADS["habitat"].make_text()), 0),
    (lambda: parse(WORKLOADS["habitat_unclearable"].make_text()), 0),
], ids=["hanoi3_dual", "hanoi_dual", "habitat", "habitat_unclearable"])
def test_run_memo_results_match_fresh_planning(scenario, seed, monkeypatch):
    """Every plan call of a run passes the run's one memo, and gets what
    the same query on the same world returns with a fresh memo."""
    calls = recorded_plan_calls(monkeypatch)
    run_scenario(scenario(), RunConfig(seed=seed))
    assert len(calls) >= 9
    memos = {id(args[2]) for args, _ in calls}
    assert len(memos) == 1 and isinstance(calls[0][0][2], world_module.SearchMemo)
    for (world, q, _), outcome in calls:
        assert without_elapsed(outcome) == without_elapsed(fresh_outcome(world, q)), q


def executed_searches(monkeypatch):
    """Patch `_astar` to record the inputs of each search it runs."""
    keys = []
    astar = world_module._astar

    def recording(grid, start, goal, budget):
        keys.append((grid.free_mask, grid.stride, start, goal, budget))
        return astar(grid, start, goal, budget)

    monkeypatch.setattr(world_module, "_astar", recording)
    return keys


@pytest.mark.parametrize("name,searches", [
    ("hanoi_dual", 37), ("habitat", 38), ("habitat_unclearable", 32)])
def test_each_distinct_search_runs_once_per_run(name, searches, monkeypatch):
    """Without the memo these runs made 172, 40 and 81 searches at seed 0."""
    keys = executed_searches(monkeypatch)
    run_scenario(parse(WORKLOADS[name].make_text()), RunConfig(seed=0))
    assert len(keys) == len(set(keys)) == searches


@pytest.mark.parametrize("name,expansions", [
    ("hanoi_dual", 3386), ("habitat", 8943), ("habitat_unclearable", 74102)])
def test_step_expansions_per_run_are_pinned(name, expansions):
    """A* pops behind a run's steps at seed 0. Breaking f-ties towards the
    lower g, the earlier order, made 20563, 14820 and 77447; an unreachable
    goal's pops are its component size under either order."""
    result = run_scenario(parse(WORKLOADS[name].make_text()), RunConfig(seed=0))
    assert sum(step.expansions for step in result.steps) == expansions


@pytest.mark.parametrize("name", ["hanoi_dual", "habitat", "habitat_unclearable"])
def test_every_search_gets_the_whole_budget(name, monkeypatch):
    """A transfer's second leg searches under the query's budget, not
    what the first leg left of it, so the memo keys a search once."""
    keys = executed_searches(monkeypatch)
    run_scenario(parse(WORKLOADS[name].make_text()), RunConfig(seed=0))
    assert keys and {budget for *_, budget in keys} == {world_module.DEFAULT_MAX_EXPANSIONS}


def test_no_search_carries_over_between_runs(monkeypatch):
    keys = executed_searches(monkeypatch)
    scenario = gen_hanoi(3)
    run_scenario(scenario)
    first = list(keys)
    keys.clear()
    run_scenario(scenario)
    assert keys == first and len(first) == len(set(first)) == 12


def rasterized_footprints(monkeypatch):
    """Patch `_footprint` to record the layer key of each footprint it
    rasterizes: the obstacle's shape, dims and position, the inflation and
    the grid geometry."""
    keys = []
    footprint = world_module._footprint

    def recording(obj, inflation, res, axes):
        ix0, iy0, xs, ys = axes
        keys.append((obj.shape, obj.dims, obj.x, obj.y, inflation, res, ix0, iy0,
                     xs.shape[0], ys.shape[1]))
        return footprint(obj, inflation, res, axes)

    monkeypatch.setattr(world_module, "_footprint", recording)
    return keys


@pytest.mark.parametrize("name,footprints", [
    ("hanoi_dual", 94), ("habitat", 88), ("habitat_unclearable", 43)])
def test_each_footprint_is_rasterized_once_per_run(name, footprints, monkeypatch):
    """Grids rasterized 572, 500 and 882 footprints in these runs at seed 0
    when each grid was built from scratch."""
    keys = rasterized_footprints(monkeypatch)
    run_scenario(parse(WORKLOADS[name].make_text()), RunConfig(seed=0))
    assert len(keys) == len(set(keys)) == footprints


def test_no_raster_carries_over_between_runs(monkeypatch):
    keys = rasterized_footprints(monkeypatch)
    scenario = gen_hanoi(3)
    run_scenario(scenario)
    first = list(keys)
    keys.clear()
    run_scenario(scenario)
    assert keys == first and len(first) == len(set(first)) > 0


def population_std(samples):
    mean = sum(samples) / len(samples)
    return math.sqrt(sum((x - mean) ** 2 for x in samples) / len(samples))


def test_module_rows_derive_mean_and_std_from_per_call_samples(monkeypatch):
    kept = []

    class KeptTimers(planner._Timers):
        def __init__(self):
            super().__init__()
            kept.append(self)

    monkeypatch.setattr(planner, "_Timers", KeptTimers)
    res = run_scenario(gen_habitat())
    assert res.status is FinalStatus.GOAL_ACHIEVED
    (timers,) = kept
    groups = {"base_main": "base", "arm_left": "left", "arm_right": "right"}
    motion = {group: [] for group in groups.values()}
    for step in res.steps:
        if step.attempts:
            motion[groups[step.agent]].extend(step.plan_times)
    samples = [timers.expand, timers.search, motion["right"], motion["left"],
               motion["base"]]
    rows = res.metrics["modules"]
    assert [row["module"] for row in rows] == list(MODULE_ROWS)
    for row, values in zip(rows, samples):
        assert len(values) >= 2 and row["calls"] == len(values)
        assert row["avg_s"] == pytest.approx(sum(values) / len(values), rel=1e-9)
        assert row["std_s"] == pytest.approx(population_std(values), rel=1e-9)
        assert row["std_s"] > 0.0


def test_arm_columns_follow_the_declared_geometry():
    """With the ids swapped, arm_left stands at +0.3 and reports in the
    right column; the arm at -0.3, named arm_right, in the left."""
    scn = gen_hanoi(3)
    left, right = scn.agents["arm_left"], scn.agents["arm_right"]
    scn.agents["arm_left"] = replace(left, x=right.x, y=right.y)
    scn.agents["arm_right"] = replace(right, x=left.x, y=left.y)
    res = run_scenario(scn)
    assert res.status is FinalStatus.GOAL_ACHIEVED
    attempts = res.metrics["attempts"]
    row = res.metrics["table"]["rows"][0]
    assert (row["Left attempts"], row["Right attempts"]) == (attempts["arm_right"],
                                                             attempts["arm_left"])
    modules = {m["module"]: m["calls"] for m in res.metrics["modules"]}
    assert modules["Motion Planner (left arm)"] == attempts["arm_right"]
    assert modules["Motion Planner (right arm)"] == attempts["arm_left"]
    assert attempts["arm_left"] != attempts["arm_right"]


def test_metrics_document_shape():
    res = run_scenario(fetch_scenario())
    metrics = res.metrics
    assert metrics["table"]["columns"] == list(TABLE_COLUMNS)
    row = metrics["table"]["rows"][0]
    assert row["Objects"] == 1
    assert row["d"] == 1
    assert row["Right attempts"] == 1  # lone arm reports in the right column
    assert row["Left attempts"] == 0
    assert [m["module"] for m in metrics["modules"]] == list(MODULE_ROWS)
    assert all(m["std_s"] == 0.0 for m in metrics["modules"])
    assert metrics["attempts"] == {"arm": 1}
    assert metrics["plan_calls"] == 1
    assert metrics["status"] == "goal_achieved"


def test_mask_timing_blanks_wall_clock_keys_only():
    doc = {"TP [s]": 0.5, "plan_time_s": 1.25, "t_sim": 3.0,
           "nested": [{"avg_s": 0.1, "attempts": 4}]}
    masked = mask_timing(doc)
    assert masked == {"TP [s]": "<time>", "plan_time_s": "<time>",
                      "t_sim": 3.0,
                      "nested": [{"avg_s": "<time>", "attempts": 4}]}


def test_masked_outputs_are_reproducible():
    first = run_scenario(gen_hanoi(3))
    second = run_scenario(gen_hanoi(3))
    assert masked_trace_text(first.trace) == masked_trace_text(second.trace)
    assert masked_metrics_text(first.metrics) == masked_metrics_text(second.metrics)
    # The raw text still carries wall-clock values, so it may differ.
    assert trace_text(first.trace).count("\n") == len(first.trace)


def test_hanoi_solo_optimal_move_count():
    res = run_scenario(gen_hanoi(3, omnipotent=True))
    assert res.status is FinalStatus.GOAL_ACHIEVED
    assert res.moves == 7
    assert res.depth == 7
    assert res.handovers() == 0
    assert all(s.feasible for s in res.steps)


def test_hanoi_solo_stays_optimal_at_the_largest_size():
    res = run_scenario(gen_hanoi(6, omnipotent=True))
    assert res.status is FinalStatus.GOAL_ACHIEVED
    assert res.moves == 2 ** 6 - 1
    assert res.depth == 2 ** 6 - 1


def test_hanoi_dual_arm_run_uses_the_pad():
    res = run_scenario(gen_hanoi(3))
    assert res.status is FinalStatus.GOAL_ACHIEVED
    assert res.depth == 9
    assert res.handovers() >= 1
    assert res.depth > 7
