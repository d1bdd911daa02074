"""Geometric world tests: grid planning, obstruction diagnosis, execution.

The blocked-world cases check the central diagnosis contract with an
independent oracle: whatever objects the planner blames, deleting exactly
those from the world must make the original query succeed.
"""

import hashlib
import heapq
import math
import random
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from taskmotion.domain import Fact, MotionClass, ActionTemplate
from taskmotion import interface, planner
from taskmotion import world as W
from taskmotion.dsl import parse
from taskmotion.planner import FinalStatus, RunConfig, run_scenario
from taskmotion.scenarios import gen_habitat, gen_hanoi
from taskmotion.world import (
    Agent,
    InvalidQuery,
    Marker,
    MotionQuery,
    MotionResult,
    Obj,
    StaleResult,
    World,
    WorldState,
    execute,
    plan_motion,
    snapshot,
    world_from_scenario,
    world_signature,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402
from scn_fuzz import fuzz_scenario  # noqa: E402


def arm_world(reach=0.45, bounds=(-0.5, -0.5, 0.5, 0.5), objects=(), markers=()):
    arm = Agent("arm", "arm", anchor=(0.0, 0.0), reach=reach, config=(0.0, 0.0))
    return World(bounds=bounds, agents={"arm": arm},
                 objects={obj.id: obj for obj in objects},
                 markers={marker.id: marker for marker in markers})


def with_objects(world, *objects):
    """The world with these objects added or replaced, by id."""
    return replace(world, objects={**world.objects, **{obj.id: obj for obj in objects}})


def without(world, ids):
    """The world with these objects removed."""
    return replace(world, objects={oid: obj for oid, obj in world.objects.items()
                                   if oid not in ids})


def query(goal, verb="put", manipulated=None, dest=None, agent="arm",
          motion_class=MotionClass.TRANSFER, start=None):
    return MotionQuery(agent=agent, motion_class=motion_class, verb=verb,
                       start=start or (0.0, 0.0), goal_point=goal,
                       manipulated=manipulated, dest=dest)


def transfer_action(name, manipulated, dest):
    return ActionTemplate(name=name, motion_class=MotionClass.TRANSFER,
                          verb="transfer", manipulated=manipulated, dest=dest)


def test_empty_world_straight_reach():
    world = arm_world()
    result = plan_motion(world, query((0.0, 0.4)))
    assert result.feasible
    assert result.path[0] == (0.0, 0.0)
    assert result.path[-1] == (0.0, 0.4)
    assert result.obstructors == ()


def test_goal_out_of_reach_reports_no_obstructors():
    world = arm_world(reach=0.3)
    result = plan_motion(world, query((0.0, 0.4)))
    assert not result.feasible
    assert result.obstructors == ()
    assert result.expansions == 0


def movable_wall_world():
    """A row of movable discs sealing the reach disc at y = 0.2."""
    return arm_world(objects=[Obj(f"c{i}", "circle", (0.06,), x, 0.2, movable=True)
                              for i, x in enumerate(np_range(-0.4, 0.4, 0.1))])


def np_range(lo, hi, step):
    out = []
    value = lo
    while value <= hi + 1e-9:
        out.append(round(value, 9))
        value += step
    return out


def test_movable_wall_blames_the_disc_on_the_path():
    world = movable_wall_world()
    result = plan_motion(world, query((0.0, 0.4)))
    assert not result.feasible
    assert result.obstructors == ("c4",)  # the disc sitting on the straight line


def test_removing_reported_obstructors_restores_feasibility():
    world = movable_wall_world()
    q = query((0.0, 0.4))
    blamed = plan_motion(world, q).obstructors
    assert blamed
    assert plan_motion(without(world, blamed), q).feasible


def test_static_seal_yields_empty_diagnosis():
    # Fixed box ring around the goal: no movable-free path either.
    world = arm_world(objects=[Obj("n", "box", (0.3, 0.04), 0.0, 0.38),
                               Obj("s", "box", (0.3, 0.04), 0.0, 0.22),
                               Obj("w", "box", (0.04, 0.2), -0.14, 0.3),
                               Obj("e", "box", (0.04, 0.2), 0.14, 0.3)])
    result = plan_motion(world, query((0.0, 0.3)))
    assert not result.feasible
    assert result.obstructors == ()


def test_goal_occupied_by_movable_is_an_obstruction():
    world = arm_world(objects=[Obj("cup", "circle", (0.05,), 0.0, 0.4, movable=True)])
    result = plan_motion(world, query((0.0, 0.4)))
    assert not result.feasible
    assert result.obstructors == ("cup",)
    assert plan_motion(without(world, {"cup"}), query((0.0, 0.4))).feasible


def test_grasp_target_covered_by_stack_reports_cover():
    world = arm_world(objects=[
        Obj("d3", "circle", (0.06,), 0.0, 0.3, movable=True),
        Obj("d2", "circle", (0.05,), 0.0, 0.3, movable=True, stack_on="d3"),
        Obj("d1", "circle", (0.04,), 0.0, 0.3, movable=True, stack_on="d2")])
    result = plan_motion(world, query((0.2, 0.0), verb="grasp", manipulated="d3"))
    assert not result.feasible
    assert result.obstructors == ("d1", "d2")  # top of the pile first


def test_carried_size_matters_in_narrow_gaps():
    # Two fixed posts leave a 0.10 m gap at x = 0: fine for the bare
    # effector, too tight once it carries a wide disc.
    world = arm_world(objects=[Obj("p1", "box", (0.3, 0.04), -0.20, 0.2),
                               Obj("p2", "box", (0.3, 0.04), 0.20, 0.2),
                               Obj("disc", "circle", (0.04,), 0.0, -0.1, movable=True)])
    bare = plan_motion(world, query((0.0, 0.4), verb="grasp", manipulated="disc"))
    assert bare.feasible
    carry = plan_motion(world, query((0.0, 0.4), verb="transfer",
                                     manipulated="disc", dest="goalmark"))
    assert not carry.feasible
    assert carry.obstructors == ()  # the gap is static, nothing to relocate


def test_plan_is_deterministic():
    world = movable_wall_world()
    a = plan_motion(world, query((0.3, -0.2)))
    b = plan_motion(world, query((0.3, -0.2)))
    assert a.path == b.path
    assert a.expansions == b.expansions
    assert a.obstructors == b.obstructors


def test_budget_monotonicity(monkeypatch):
    world = movable_wall_world()
    goal = (0.3, -0.2)
    monkeypatch.setattr(W, "DEFAULT_MAX_EXPANSIONS", 3)
    small = plan_motion(world, query(goal))
    monkeypatch.setattr(W, "DEFAULT_MAX_EXPANSIONS", 50_000)
    big = plan_motion(world, query(goal))
    assert not small.feasible and small.expansions == 3
    assert big.feasible


def test_start_outside_reach_region_is_invalid():
    world = arm_world(reach=0.45)
    with pytest.raises(InvalidQuery):
        plan_motion(world, query((0.0, 0.1), start=(0.48, 0.0)))


def test_attempt_counter_counts_plan_calls(monkeypatch):
    """An obstruction probe runs inside its plan call, not as a call of
    its own, so the calls a caller makes are all the plan calls."""
    plan_calls = 0
    plan = W.plan_motion

    def counting(*args):
        nonlocal plan_calls
        plan_calls += 1
        return plan(*args)

    monkeypatch.setattr(W, "plan_motion", counting)
    world = arm_world()
    W.plan_motion(world, query((0.0, 0.4)))
    W.plan_motion(world, query((0.0, 0.3)))
    assert plan_calls == 2
    assert W.plan_motion(world, query((0.0, 0.2))).obstructors == ()
    assert plan_calls == 3


# ------------------------------------------------------------- search memo


def counted_astar(monkeypatch):
    """Patch `_astar` to count its executions; returns the live count."""
    runs = [0]
    astar = W._astar

    def counting(*args):
        runs[0] += 1
        return astar(*args)

    monkeypatch.setattr(W, "_astar", counting)
    return runs


def without_elapsed(result):
    return replace(result, elapsed=0.0)


def test_a_memo_hit_runs_no_search_and_repeats_the_result(monkeypatch):
    world = movable_wall_world()
    runs = counted_astar(monkeypatch)
    memo = W.SearchMemo()
    first = plan_motion(world, query((0.3, -0.2)), memo)
    searches = runs[0]
    again = plan_motion(world, query((0.3, -0.2)), memo)
    assert searches > 0 and runs[0] == searches
    assert without_elapsed(again) == without_elapsed(first)
    assert again.expansions == first.expansions > 0


def test_memo_entries_hold_tuples_and_no_grid():
    """Paths are tuples, so no caller can change a shared entry, and keys
    keep the mask's bytes, not the grid that made them; no map of the
    memo holds a grid."""
    world = movable_wall_world()
    memo = W.SearchMemo()
    assert not plan_motion(world, query((0.0, 0.4)), memo).feasible  # leg and ghost
    assert plan_motion(world, query((0.3, -0.2)), memo).feasible
    assert len(memo.searches) == 3
    for (mask, stride, start, goal), (path, pops) in memo.searches.items():
        assert type(mask) is bytes and len(mask) % stride == 0
        assert all(type(v) is tuple and len(v) == 2 for v in (start, goal))
        assert type(pops) is int
        assert path is None or type(path) is tuple
    assert any(path is not None for path, _ in memo.searches.values())
    assert memo.rasters
    for key, layer in memo.rasters.items():
        assert type(key) is tuple
        assert not isinstance(layer, W._Grid)
        assert layer is None or isinstance(layer, (tuple, np.ndarray))
        if isinstance(layer, tuple):
            assert not any(isinstance(part, W._Grid) for part in layer)


def test_cached_layers_are_read_only():
    memo = W.SearchMemo()
    plan_motion(movable_wall_world(), query((0.0, 0.4)), memo)
    arrays = [part for layer in memo.rasters.values()
              for part in (layer if isinstance(layer, tuple) else (layer,))
              if isinstance(part, np.ndarray)]
    assert len(arrays) >= 4  # two axes, a reach disc and a footprint at least
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


# ------------------------------------------------------------- execution


def stacked_world():
    return arm_world(reach=2.0, bounds=(-1.0, -0.5, 1.0, 1.0), objects=[
        Obj("pegA", "circle", (0.028,), -0.4, 0.4),
        Obj("pegB", "circle", (0.028,), 0.4, 0.4),
        Obj("d2", "circle", (0.05,), -0.4, 0.4, movable=True, stack_on="pegA"),
        Obj("d1", "circle", (0.04,), -0.4, 0.4, movable=True, stack_on="d2")])


def test_snapshot_derives_stacking_facts():
    state = snapshot(stacked_world())
    assert Fact("on", ("d1", "d2")) in state.facts
    assert Fact("on", ("d2", "pegA")) in state.facts
    assert Fact("at_peg", ("d1", "pegA")) in state.facts
    assert Fact("clear", ("d1",)) in state.facts
    assert Fact("clear", ("pegB",)) in state.facts
    assert Fact("clear", ("d2",)) not in state.facts
    assert Fact("carrying", ()) not in state.facts


def test_transfer_restacks_and_updates_facts():
    world = stacked_world()
    action = transfer_action("move_d1", "d1", "pegB")
    result = plan_motion(world, query((0.4, 0.4), verb="transfer",
                                      manipulated="d1", dest="pegB"))
    assert result.feasible
    after = execute(world, "arm", result, action)
    assert after.objects["d1"].stack_on == "pegB"
    assert after.objects["d1"].x == pytest.approx(0.4)
    state = snapshot(after)
    assert Fact("on", ("d1", "pegB")) in state.facts
    assert Fact("clear", ("d2",)) in state.facts
    # Source world is untouched.
    assert world.objects["d1"].stack_on == "d2"


def test_transfer_onto_occupied_peg_stacks_on_top():
    world = with_objects(stacked_world(), Obj("d3", "circle", (0.06,), 0.4, 0.4,
                                              movable=True, stack_on="pegB"))
    action = transfer_action("move_d1", "d1", "pegB")
    result = plan_motion(world, query((0.4, 0.4), verb="transfer",
                                      manipulated="d1", dest="pegB"))
    after = execute(world, "arm", result, action)
    assert after.objects["d1"].stack_on == "d3"
    assert Fact("on", ("d1", "d3")) in snapshot(after).facts


def test_grasp_then_put_roundtrip():
    world = stacked_world()
    grasp = ActionTemplate("grasp_d1", MotionClass.TRANSFER, verb="grasp",
                           manipulated="d1")
    result = plan_motion(world, query((-0.4, 0.4), verb="grasp", manipulated="d1"))
    mid = execute(world, "arm", result, grasp)
    assert mid.agents["arm"].holding == "d1"
    assert mid.objects["d1"].stack_on is None
    state = snapshot(mid)
    assert Fact("holding", ("arm", "d1")) in state.facts
    assert Fact("held", ("d1",)) in state.facts
    assert Fact("carrying", ()) in state.facts
    assert Fact("clear", ("d1",)) not in state.facts

    put = ActionTemplate("put_d1", MotionClass.TRANSFER, verb="put",
                         manipulated="d1", dest="pegB")
    result2 = plan_motion(mid, query((0.4, 0.4), verb="put", manipulated="d1",
                                     dest="pegB", start=mid.agents["arm"].config))
    after = execute(mid, "arm", result2, put)
    assert after.agents["arm"].holding is None
    assert after.objects["d1"].stack_on == "pegB"
    assert after.objects["d1"].x == pytest.approx(0.4, abs=1e-12)
    assert after.objects["d1"].y == pytest.approx(0.4, abs=1e-12)


def test_put_without_holding_is_invalid():
    world = stacked_world()
    put = ActionTemplate("put_d1", MotionClass.TRANSFER, verb="put",
                         manipulated="d1", dest="pegB")
    result = plan_motion(world, query((0.4, 0.4), verb="put", manipulated="d1",
                                      dest="pegB"))
    with pytest.raises(InvalidQuery):
        execute(world, "arm", result, put)


def test_stale_result_detected():
    world = stacked_world()
    action = transfer_action("move_d1", "d1", "pegB")
    result = plan_motion(world, query((0.4, 0.4), verb="transfer",
                                      manipulated="d1", dest="pegB"))
    moved = with_objects(world, Obj("d1", "circle", (0.04,), 0.0, 0.0, movable=True))
    with pytest.raises(StaleResult):
        execute(moved, "arm", result, action)


def test_transit_carries_mounted_arms_and_cargo():
    base = Agent("base", "base", anchor=(0.0, 0.0), radius=0.1, config=(0.0, 0.0))
    arm = Agent("arm", "arm", anchor=(0.2, 0.0), reach=0.5, config=(0.2, 0.0),
                holding="cup", mount="base", mount_off=(0.2, 0.0))
    cup = Obj("cup", "circle", (0.03,), 0.2, 0.0, movable=True)
    world = World(bounds=(-1.0, -1.0, 1.0, 1.0),
                  agents={"base": base, "arm": arm}, objects={"cup": cup})
    q = MotionQuery("base", MotionClass.TRANSIT, "transfer", (0.0, 0.0),
                    (0.4, 0.4))
    result = plan_motion(world, q)
    assert result.feasible
    transit = ActionTemplate("go", MotionClass.TRANSIT)
    after = execute(world, "base", result, transit)
    assert after.agents["base"].config == (0.4, 0.4)
    assert after.agents["arm"].anchor == pytest.approx((0.6, 0.4))
    assert after.objects["cup"].x == pytest.approx(0.6)
    assert after.objects["cup"].y == pytest.approx(0.4)
    assert after.clock > world.clock


def test_base_ignores_arm_level_and_stacked_obstacles():
    base = Agent("base", "base", anchor=(0.0, 0.0), radius=0.1, config=(0.0, 0.0))
    # Both slabs span the full world width; only their tags differ.
    bench = Obj("bench", "box", (2.2, 0.1), 0.0, 0.4, blocks="arm")
    shelf = Obj("shelf", "box", (2.2, 0.1), 0.0, 0.4, blocks="all",
                movable=True, stack_on="bench")
    world = World(bounds=(-1.0, -1.0, 1.0, 1.0), agents={"base": base},
                  objects={"bench": bench, "shelf": shelf})
    q = MotionQuery("base", MotionClass.TRANSIT, "transfer", (0.0, 0.0),
                    (0.0, 0.8))
    # Arm-level slab and the slab stacked on it are both irrelevant down here.
    assert plan_motion(world, q).feasible
    world = with_objects(world, Obj("bench", "box", (2.2, 0.1), 0.0, 0.4, blocks="base"))
    blocked = plan_motion(world, q)
    assert not blocked.feasible
    assert blocked.obstructors == ()  # the barrier is fixed, nothing to relocate


def test_wait_advances_clock_and_stores_facts():
    world = stacked_world()
    wait = ActionTemplate("bake", MotionClass.WAIT, duration=30.0,
                          effects_add=frozenset({Fact("baked", ("d1",))}))
    after = execute(world, "arm", None, wait)
    assert after.clock == pytest.approx(world.clock + 30.0)
    assert Fact("baked", ("d1",)) in after.facts
    assert Fact("baked", ("d1",)) in snapshot(after).facts


def test_derived_effects_never_enter_the_fact_store():
    world = stacked_world()
    sym = ActionTemplate("note", MotionClass.SYMBOLIC,
                         effects_add=frozenset({Fact("clear", ("pegA",)),
                                                Fact("logged", ())}))
    after = execute(world, "arm", None, sym)
    assert Fact("logged", ()) in after.facts
    assert Fact("clear", ("pegA",)) not in after.facts  # derived, not stored


def test_object_conservation_and_signature_change():
    world = stacked_world()
    before_ids = set(world.objects)
    sig0 = world_signature(world)
    assert world_signature(world) == sig0  # stable on a quiet world
    action = transfer_action("move_d1", "d1", "pegB")
    result = plan_motion(world, query((0.4, 0.4), verb="transfer",
                                      manipulated="d1", dest="pegB"))
    after = execute(world, "arm", result, action)
    assert set(after.objects) == before_ids
    assert world_signature(after) != sig0


def test_marker_snap_yields_at_facts():
    world = arm_world(markers=[Marker("pad", 0.1, 0.1, snap=0.05)],
                      objects=[Obj("cup", "circle", (0.02,), 0.12, 0.1, movable=True)])
    state = snapshot(world)
    assert Fact("at", ("cup", "pad")) in state.facts
    moved = with_objects(world, Obj("cup", "circle", (0.02,), 0.2, 0.1, movable=True))
    assert Fact("at", ("cup", "pad")) not in snapshot(moved).facts


# ------------------------------------- immutable worlds, cached snapshots


def test_worlds_and_their_states_are_read_only():
    world = stacked_world()
    world = replace(world, agents={"arm": replace(world.agents["arm"], holding="d1")},
                    markers={"pad": Marker("pad", 0.4, 0.4)})
    state = snapshot(world)
    maps = {"objects": world.objects, "agents": world.agents, "markers": world.markers}
    for name, mapping in maps.items():
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
    with pytest.raises(FrozenInstanceError):
        world.clock = 1.0
    with pytest.raises(FrozenInstanceError):
        state.facts = frozenset()
    assert snapshot(world) is state  # derived once, then read


def test_a_replaced_world_derives_its_own_state():
    objects = {"cup": Obj("cup", "circle", (0.02,), 0.12, 0.1, movable=True)}
    world = replace(arm_world(markers=[Marker("pad", 0.1, 0.1, snap=0.05)]), objects=objects)
    objects["cup"] = Obj("cup", "circle", (0.02,), 0.3, 0.1, movable=True)
    state = snapshot(world)
    assert world.objects["cup"].x == 0.12  # the world kept its own copy
    moved = replace(world, objects=objects)
    assert moved.objects["cup"].x == 0.3
    assert Fact("at", ("cup", "pad")) in state.facts
    assert Fact("at", ("cup", "pad")) not in snapshot(moved).facts
    assert world_signature(moved) != world_signature(world)
    assert snapshot(world) is state
    assert moved.markers is world.markers  # views are passed on, not nested


@pytest.mark.parametrize("make,signature", [
    (gen_habitat, "77b4212dcab573a53245f0e69b41b9a30dc50cd1e850315451fbc632b6e9ceaf"),
    (lambda: gen_hanoi(3), "5379268158f74107f3c6cb8d9cf54b49227f38101d03208f25c208f862c9bb7c"),
], ids=["habitat", "hanoi3"])
def test_initial_world_signatures_are_pinned(make, signature):
    assert world_signature(world_from_scenario(make())) == signature


def oracle_snapshot(world):
    """The earlier snapshot, derived from scratch on every call, with the
    signature sorting facts by `Fact`'s own ordering."""
    facts = set()
    holders = W.held_by(world)
    supports = W._supported(world)
    for oid in sorted(world.objects):
        obj = world.objects[oid]
        if obj.stack_on is not None:
            facts.add(Fact("on", (oid, obj.stack_on)))
            chain = W.stack_chain_down(world, oid)
            if chain:
                facts.add(Fact("at_peg", (oid, chain[-1])))
        if oid in holders:
            facts.add(Fact("holding", (holders[oid], oid)))
            facts.add(Fact("held", (oid,)))
            continue
        if oid not in supports:
            facts.add(Fact("clear", (oid,)))
        if obj.movable:
            for marker in world.markers.values():
                if math.hypot(obj.x - marker.x, obj.y - marker.y) <= marker.snap:
                    facts.add(Fact("at", (oid, marker.id)))
    if holders:
        facts.add(Fact("carrying", ()))
    for agent in world.agents.values():
        if agent.kind != "base":
            continue
        for marker in world.markers.values():
            if math.hypot(agent.config[0] - marker.x, agent.config[1] - marker.y) <= marker.snap:
                facts.add(Fact("at", (agent.id, marker.id)))
    facts |= world.facts
    poses = {oid: (o.x, o.y, o.yaw) for oid, o in sorted(world.objects.items())}
    configs = {aid: a.config for aid, a in sorted(world.agents.items())}
    hasher = hashlib.sha256()
    for oid in sorted(poses):
        x, y, yaw = poses[oid]
        hasher.update(f"{oid}:{round(x, 9)}:{round(y, 9)}:{round(yaw, 9)};".encode())
    for aid in sorted(configs):
        x, y = configs[aid]
        hasher.update(f"{aid}@{round(x, 9)}:{round(y, 9)};".encode())
    for fact in sorted(facts):
        hasher.update(fact.text().encode())
        hasher.update(b"|")
    return WorldState(frozenset(facts), hasher.hexdigest())


@pytest.mark.parametrize("make", [gen_habitat, lambda: gen_hanoi(3)],
                         ids=["habitat", "hanoi3_dual"])
def test_cached_states_match_the_from_scratch_oracle(make, monkeypatch):
    """Every world a run passes through: the initial one and each that
    `execute` returns."""
    worlds = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            worlds.append(fn(*args, **kwargs))
            return worlds[-1]
        return wrapper

    monkeypatch.setattr(planner, "world_from_scenario", recorded(planner.world_from_scenario))
    monkeypatch.setattr(interface, "execute", recorded(interface.execute))
    assert run_scenario(make()).status is FinalStatus.GOAL_ACHIEVED
    assert len(worlds) > 5
    for world in worlds:
        cached, oracle = snapshot(world), oracle_snapshot(world)
        for f in fields(WorldState):
            assert getattr(cached, f.name) == getattr(oracle, f.name), f.name
        assert world_signature(world) == oracle.signature


# ----------------------------------------------- randomized removal oracle


def random_blocked_world(rng):
    """Reach-limited arm, fixed scatter, movables ringed around the goal."""
    objects = []
    goal = (round(rng.choice([-0.2, -0.1, 0.0, 0.1, 0.2]), 9), 0.38)
    for i in range(rng.randint(0, 3)):
        x = rng.choice(np_range(-0.4, 0.4, 0.1))
        y = rng.choice(np_range(-0.4, -0.1, 0.1))
        objects.append(Obj(f"f{i}", "box", (0.06, 0.06), x, y))
    ring = rng.randint(5, 8)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    for i in range(ring):
        angle = phase + 2.0 * math.pi * i / ring
        x = goal[0] + 0.11 * math.cos(angle)
        y = goal[1] + 0.11 * math.sin(angle)
        objects.append(Obj(f"m{i}", "circle", (0.05,), round(x, 9), round(y, 9),
                           movable=True))
    return arm_world(reach=0.46, bounds=(-0.5, -0.5, 0.5, 0.5), objects=objects), goal


def test_random_obstructions_removal_oracle():
    rng = random.Random(20260816)
    diagnosed = 0
    for _ in range(30):
        world, goal = random_blocked_world(rng)
        q = query(goal)
        result = plan_motion(world, q)
        if result.feasible:
            continue
        diagnosed += 1
        assert result.obstructors, "blocked by movables must name at least one"
        cleared = without(world, result.obstructors)
        assert plan_motion(cleared, q).feasible, "removal must restore feasibility"
    assert diagnosed >= 10


# --------------------------------------- fast grid and A* against oracles
#
# The oracles are the planner's earlier from-scratch versions: a raster
# that tests every obstacle over the full grid, A* on (x, y) tuples with a
# range test per neighbour, and a diagnosis that tests each path cell
# against each movable. The fast versions must block the same cells and
# return the same path and pop count, since obstructor order depends on
# the exact path. The tuple A* also keeps the earlier lower-g-first tie
# order, as an oracle of path cost, feasibility and dead-end pops.


class OracleGrid:
    """Occupancy raster over the agent's admissible region."""

    def __init__(self, world: World, agent: Agent, obstacles: list[Obj], inflation: float):
        res = world.resolution
        x0, y0, x1, y1 = world.bounds
        self.res = res
        self.ix0 = math.ceil(round(x0 / res, 9))
        self.iy0 = math.ceil(round(y0 / res, 9))
        ix1 = math.floor(round(x1 / res, 9))
        iy1 = math.floor(round(y1 / res, 9))
        self.nx = max(ix1 - self.ix0 + 1, 0)
        self.ny = max(iy1 - self.iy0 + 1, 0)
        xs = (np.arange(self.nx) + self.ix0) * res
        ys = (np.arange(self.ny) + self.iy0) * res
        self.X, self.Y = np.meshgrid(xs, ys, indexing="ij")
        blocked = np.zeros((self.nx, self.ny), dtype=bool)
        if agent.kind == "arm":
            dist2 = (self.X - agent.anchor[0]) ** 2 + (self.Y - agent.anchor[1]) ** 2
            blocked |= dist2 > agent.reach ** 2
        for obj in obstacles:
            if obj.shape == "circle":
                r = obj.dims[0] + inflation
                blocked |= (self.X - obj.x) ** 2 + (self.Y - obj.y) ** 2 <= r * r
            else:
                hw = obj.dims[0] / 2.0 + inflation
                hh = obj.dims[1] / 2.0 + inflation
                blocked |= (np.abs(self.X - obj.x) <= hw) & (np.abs(self.Y - obj.y) <= hh)
        self.blocked = blocked

    def in_range(self, c: tuple[int, int]) -> bool:
        return 0 <= c[0] < self.nx and 0 <= c[1] < self.ny

    def free(self, c: tuple[int, int]) -> bool:
        return self.in_range(c) and not self.blocked[c[0], c[1]]


_NEIGHBORS = ((1, 0, 5), (1, 1, 7), (0, 1, 5), (-1, 1, 7),
              (-1, 0, 5), (-1, -1, 7), (0, -1, 5), (1, -1, 7))


def oracle_astar(grid, start: tuple[int, int], goal: tuple[int, int], budget: int,
                 deeper_first: bool = True) -> tuple[list[tuple[int, int]] | None, int]:
    """Deterministic 8-connected A*; integer costs 5/7 avoid float ties.

    Equal f pops the higher g first, then the smaller (x, y). With
    `deeper_first=False` it pops the lower g first, the planner's earlier
    order: a different optimal path, so it serves as a cost oracle only."""
    sign = -1 if deeper_first else 1  # of g in the heap key

    def heuristic(c):
        dx = abs(c[0] - goal[0])
        dy = abs(c[1] - goal[1])
        return 5 * (dx + dy) - 3 * min(dx, dy)

    open_heap = [(heuristic(start), 0, start)]
    g_score = {start: 0}
    came: dict[tuple[int, int], tuple[int, int]] = {}
    closed: set[tuple[int, int]] = set()
    pops = 0
    while open_heap and pops < budget:
        f, key, cell = heapq.heappop(open_heap)
        g = sign * key
        if cell in closed:
            continue
        closed.add(cell)
        pops += 1
        if cell == goal:
            path = [cell]
            while cell in came:
                cell = came[cell]
                path.append(cell)
            path.reverse()
            return path, pops
        for dx, dy, step in _NEIGHBORS:
            nxt = (cell[0] + dx, cell[1] + dy)
            if nxt in closed or not grid.free(nxt):
                continue
            tentative = g + step
            if tentative < g_score.get(nxt, 1 << 60):
                g_score[nxt] = tentative
                came[nxt] = cell
                heapq.heappush(open_heap, (tentative + heuristic(nxt), sign * tentative, nxt))
    return None, pops


def random_raster_case(rng):
    """A random agent and obstacle set; footprints may run off the bounds."""
    x0 = round(rng.uniform(-0.6, 0.0), 3)
    y0 = round(rng.uniform(-0.6, 0.0), 3)
    bounds = (x0, y0, round(x0 + rng.uniform(0.1, 0.9), 3),
              round(y0 + rng.uniform(0.1, 0.9), 3))
    world = World(bounds=bounds, resolution=rng.choice([0.02, 0.025, 0.03, 0.05]))
    if rng.random() < 0.5:
        agent = Agent("arm", "arm", anchor=(rng.uniform(x0, bounds[2]), rng.uniform(y0, bounds[3])),
                      reach=rng.uniform(0.1, 0.8))
    else:
        agent = Agent("base", "base", anchor=(0.0, 0.0), radius=0.1)
    obstacles = []
    for i in range(rng.randint(0, 12)):
        x = rng.uniform(bounds[0] - 0.2, bounds[2] + 0.2)
        y = rng.uniform(bounds[1] - 0.2, bounds[3] + 0.2)
        if rng.random() < 0.5:
            obstacles.append(Obj(f"o{i}", "circle", (rng.uniform(0.0, 0.15),), x, y))
        else:
            obstacles.append(Obj(f"o{i}", "box", (rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)),
                                 x, y))
    return world, agent, obstacles, rng.choice([0.0, 0.01, rng.uniform(0.0, 0.08)])


def test_raster_matches_full_grid_oracle():
    rng = random.Random(20261018)
    for _ in range(300):
        world, agent, obstacles, inflation = random_raster_case(rng)
        fast = W._Grid(world, agent, obstacles, inflation)
        slow = OracleGrid(world, agent, obstacles, inflation)
        assert (fast.nx, fast.ny) == (slow.nx, slow.ny)
        assert np.array_equal(fast.blocked, slow.blocked)
        for x in range(-1, fast.nx + 1):
            for y in range(-1, fast.ny + 1):
                assert fast.free((x, y)) == slow.free((x, y))


def test_grids_assembled_from_shared_layers_match_the_oracle():
    """Grids built in random order through one memo's layers equal the
    from-scratch oracle cell for cell, padding ring included. One pool of
    objects, some moved from scene to scene and some partly off the
    bounds, is seen over three geometries; a base, a fixed arm and an arm
    mounted on the base, whose anchor moves with it, take ghost and
    non-ghost obstacle sets at several inflations; each arm's reach is one
    of two from scene to scene."""
    rng = random.Random(20261019)
    pool = []
    for i in range(10):
        x, y = rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)
        movable, blocks = rng.random() < 0.5, rng.choice(["all", "all", "arm", "base"])
        if rng.random() < 0.5:
            pool.append(Obj(f"o{i}", "circle", (rng.uniform(0.01, 0.15),), x, y,
                            movable=movable, blocks=blocks))
        else:
            pool.append(Obj(f"o{i}", "box", (rng.uniform(0.01, 0.3), rng.uniform(0.01, 0.3)),
                            x, y, movable=movable, blocks=blocks))
    cases = []
    for bounds, res in (((-0.5, -0.5, 0.5, 0.5), 0.02), ((-0.3, -0.6, 0.6, 0.2), 0.02),
                        ((-0.5, -0.5, 0.5, 0.5), 0.025)):
        for _ in range(4):
            objects = {obj.id: obj for obj in pool}
            for obj in rng.sample(pool, 3):
                objects[obj.id] = replace(obj, x=rng.uniform(-0.7, 0.7), y=rng.uniform(-0.7, 0.7))
            bx, by = rng.choice([(0.0, 0.0), (0.2, -0.1), (-0.25, 0.3)])
            agents = [Agent("cart", "base", anchor=(bx, by), radius=0.1, config=(bx, by)),
                      Agent("fixed", "arm", anchor=(-0.2, 0.1), reach=rng.choice([0.35, 0.5])),
                      Agent("mounted", "arm", anchor=(bx + 0.05, by - 0.1),
                            reach=rng.choice([0.3, 0.4]),
                            mount="cart", mount_off=(0.05, -0.1))]
            world = World(bounds=bounds, resolution=res, objects=objects,
                          agents={agent.id: agent for agent in agents})
            for agent in agents:
                for ghost in (False, True):
                    exclude = set(rng.sample(sorted(objects), rng.randint(0, 2)))
                    obstacles = W._obstacles_for(world, agent, exclude, ghost)
                    for inflation in rng.sample([0.0, 0.01, 0.03, 0.06], 2):
                        cases.append((world, agent, obstacles, inflation))
    rng.shuffle(cases)
    memo = W.SearchMemo()
    for world, agent, obstacles, inflation in cases + cases[:20]:
        fast = W._Grid(world, agent, obstacles, inflation, memo.rasters)
        slow = OracleGrid(world, agent, obstacles, inflation)
        padded = np.zeros((slow.nx + 2, slow.ny + 2), dtype=bool)
        padded[1:-1, 1:-1] = ~slow.blocked
        assert fast.stride == slow.ny + 2
        assert fast.free_mask == padded.tobytes()
    footprints = sum(len(obstacles) for _, _, obstacles, _ in cases)
    assert len(cases) == 144 and footprints > 2 * len(memo.rasters)  # layers were shared


def random_searches():
    """(fast grid, oracle grid, start, goal) on random raster cases: free
    and random cells, goals equal to the start included."""
    rng = random.Random(20261019)
    for _ in range(150):
        world, agent, obstacles, inflation = random_raster_case(rng)
        fast = W._Grid(world, agent, obstacles, inflation)
        slow = OracleGrid(world, agent, obstacles, inflation)
        if fast.nx == 0 or fast.ny == 0:
            continue
        free = [(x, y) for x in range(fast.nx) for y in range(fast.ny) if slow.free((x, y))]
        cells = [(rng.randrange(fast.nx), rng.randrange(fast.ny)) for _ in range(2)]
        starts = [rng.choice(free)] if free else cells[:1]
        for start in starts + cells[:1]:
            for goal in [start, cells[1]] + ([rng.choice(free)] if free else []):
                yield fast, slow, start, goal


def test_astar_matches_tuple_oracle():
    unreachable = reached = 0
    for fast, slow, start, goal in random_searches():
        for budget in (1, 3, 50_000):
            want = oracle_astar(slow, start, goal, budget)
            assert W._astar(fast, start, goal, budget) == want
            if budget == 50_000:
                if want[0] is None:
                    unreachable += 1
                elif start != goal:
                    reached += 1
    assert unreachable >= 100 and reached >= 300


@pytest.fixture(scope="module")
def workload_runs():
    """What the three benchmark workloads hand to `_astar` and `_diagnose`
    at seeds 0-3: every distinct search as (grid, start, goal, budget),
    and the arguments and result of every diagnosis."""
    searches, diagnoses = {}, []
    astar, diagnose = W._astar, W._diagnose

    def recorded_search(grid, start, goal, budget):
        searches.setdefault((grid.free_mask, grid.stride, start, goal, budget),
                            (grid, start, goal, budget))
        return astar(grid, start, goal, budget)

    def recorded_diagnosis(*args):
        diagnoses.append((args, diagnose(*args)))
        return diagnoses[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(W, "_astar", recorded_search)
        patch.setattr(W, "_diagnose", recorded_diagnosis)
        for name in sorted(WORKLOADS):
            scenario = parse(WORKLOADS[name].make_text())
            for seed in range(4):
                run_scenario(scenario, RunConfig(seed=seed))
    return list(searches.values()), diagnoses


def path_cost(cells) -> int:
    return sum(7 if a[0] != b[0] and a[1] != b[1] else 5 for a, b in zip(cells, cells[1:]))


def astar_cases(searched):
    """(grid, oracle grid, start, goal, budget): the random raster cases
    under the whole budget, then the recorded searches, whose oracle reads
    the grid's own mask."""
    for fast, slow, start, goal in random_searches():
        yield fast, slow, start, goal, 50_000
    for grid, start, goal, budget in searched:
        yield grid, grid, start, goal, budget


def test_astar_keeps_the_cost_feasibility_and_dead_end_pops_of_the_earlier_order(
        workload_runs):
    """Against the lower-g-first oracle, on the random raster cases and on
    every search of the workloads: the same optimal path cost, the same
    verdict, and for an unreachable goal the same pops (the component
    size, capped by the budget). Deeper-first ties pop fewer cells."""
    searched = workload_runs[0]
    assert len(searched) >= 100
    new_pops = old_pops = 0
    for fast, slow, start, goal, budget in astar_cases(searched):
        path, popped = W._astar(fast, start, goal, budget)
        old_path, old_popped = oracle_astar(slow, start, goal, budget, deeper_first=False)
        assert (path is None) == (old_path is None)
        if path is None:
            assert popped == old_popped
        else:
            assert path_cost(path) == path_cost(old_path)
            new_pops += popped
            old_pops += old_popped
    assert new_pops < old_pops / 2


@pytest.mark.parametrize("checkpoint", [64, 512])
def test_the_proof_checkpoint_changes_no_astar_result(checkpoint, workload_runs, monkeypatch):
    """Where a search stops to prove its goal unreachable changes neither
    its path nor its pop count."""
    cases = list(astar_cases(workload_runs[0]))
    want = [W._astar(fast, start, goal, budget) for fast, _, start, goal, budget in cases]
    assert W.PROOF_CHECKPOINT == 128
    monkeypatch.setattr(W, "PROOF_CHECKPOINT", checkpoint)
    assert [W._astar(fast, start, goal, budget) for fast, _, start, goal, budget in cases] == want


def oracle_diagnose(world, agent, leg, exclude, inflation, memo):
    """The earlier `_diagnose`: each ghost-path cell centre tested against
    each movable with the scalar `_covers`."""
    ghost_obstacles = W._obstacles_for(world, agent, exclude, ghost=True)
    grid = W._Grid(world, agent, ghost_obstacles, inflation, memo.rasters)
    start_cell = grid.cell(leg.start)
    goal_cell = grid.cell(leg.goal)
    if not grid.free(start_cell) or not grid.free(goal_cell):
        return ()
    cells, _ = W._search(memo, grid, start_cell, goal_cell)
    if cells is None:
        return ()
    holders = W.held_by(world)
    movables = [obj for oid, obj in sorted(world.objects.items())
                if obj.movable and oid not in exclude and oid not in holders]
    first_hit: dict[str, int] = {}
    for idx, cell in enumerate(cells):
        point = grid.center(cell)
        for obj in movables:
            if obj.id not in first_hit and W._covers(obj, point, inflation):
                first_hit[obj.id] = idx
    return tuple(sorted(first_hit, key=lambda oid: (first_hit[oid], oid)))


def test_diagnosis_matches_the_scalar_covers_oracle(workload_runs, monkeypatch):
    """Footprint patches test a circle by squared distance, `_covers` by
    `hypot`; over every diagnosis of the workloads at seeds 0-3, the fuzz
    runs and the random blocked worlds, both name the same obstructors in
    the same order."""
    diagnoses = list(workload_runs[1])
    diagnose = W._diagnose

    def recorded(*args):
        diagnoses.append((args, diagnose(*args)))
        return diagnoses[-1][1]

    monkeypatch.setattr(W, "_diagnose", recorded)
    for seed in range(200):
        run_scenario(fuzz_scenario(seed), RunConfig(depth_cap=12, seed=seed))
    rng = random.Random(20260816)
    for _ in range(100):
        world, goal = random_blocked_world(rng)
        plan_motion(world, query(goal))
    assert sum(bool(found) for _, found in diagnoses) >= 200
    for args, found in diagnoses:
        assert found == oracle_diagnose(*args)


class FreeCells:
    """`OracleGrid`'s free test as a set lookup, for the larger grids below."""

    def __init__(self, slow: OracleGrid):
        self.cells = {(x, y) for x, y in np.argwhere(~slow.blocked).tolist()}

    def free(self, c: tuple[int, int]) -> bool:
        return c in self.cells


def leaky_pocket(name, cx, cy, h, sx, sy, res=0.02):
    """Walls one cell thick on the cell centres of a square `h` cells out
    from cell (cx, cy), with the corner cell towards (sx, sy) left out, so
    inside and outside meet by one diagonal step only."""

    def wall(i, x0, x1, y0, y1):  # inclusive cell ranges
        return Obj(f"{name}{i}", "box", ((x1 - x0 + 1) * res, (y1 - y0 + 1) * res),
                   (x0 + x1) / 2 * res, (y0 + y1) / 2 * res)

    row, col = cy + sy * h, cx + sx * h
    return [wall(0, min(cx - sx * h, col - sx), max(cx - sx * h, col - sx), row, row),
            wall(1, col, col, min(cy - sy * h, row - sy), max(cy - sy * h, row - sy)),
            wall(2, cx - h, cx + h, cy - sy * h, cy - sy * h),
            wall(3, cx - sx * h, cx - sx * h, cy - h, cy + h)]


def walled_case(rng):
    """A 45 x 45 cell floor crossed by walls, with square pockets sealed by
    box rings and one pocket open by a diagonal step at a corner. Returns
    the world, the agent, the obstacles, the sealed pocket centres, the
    open pocket's centre and, for each wall, the two points facing each
    other across its middle."""
    world = World(bounds=(-0.44, -0.44, 0.44, 0.44))
    agent = Agent("base", "base", anchor=(0.0, 0.0))
    obstacles = []
    crossings = []
    for i in range(rng.randint(1, 4)):
        x, y = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
        length = rng.uniform(0.3, 0.7)
        if rng.random() < 0.5:
            obstacles.append(Obj(f"w{i}", "box", (length, 0.04), x, y))
            crossings.append(((x, y - 0.06), (x, y + 0.06)))
        else:
            obstacles.append(Obj(f"w{i}", "box", (0.04, length), x, y))
            crossings.append(((x - 0.06, y), (x + 0.06, y)))
    pockets = []
    for i in range(rng.randint(1, 2)):
        cx, cy = rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35)
        half = rng.choice([0.06, 0.08])
        for side, (dx, dy, dims) in enumerate(((0.0, half, (2 * half + 0.04, 0.04)),
                                                (0.0, -half, (2 * half + 0.04, 0.04)),
                                                (half, 0.0, (0.04, 2 * half + 0.04)),
                                                (-half, 0.0, (0.04, 2 * half + 0.04)))):
            obstacles.append(Obj(f"p{i}{side}", "box", dims, cx + dx, cy + dy))
        pockets.append((cx, cy))
    h = rng.choice([4, 6])
    cx, cy = rng.randint(h - 20, 20 - h), rng.randint(h - 20, 20 - h)
    obstacles += leaky_pocket("q", cx, cy, h, rng.choice([-1, 1]), rng.choice([-1, 1]))
    return world, agent, obstacles, pockets, (cx * 0.02, cy * 0.02), crossings


def test_astar_past_the_proof_checkpoint_matches_tuple_oracle(monkeypatch):
    """Searches long enough to reach `PROOF_CHECKPOINT`: goals sealed in
    pockets, goals reached only after more pops than the checkpoint or
    only by a diagonal step, budgets between the checkpoint and the
    start's component size, and blocked starts, which only a direct
    `_astar` call can pose."""
    proofs = []
    label = W._unreached_pops

    def recorded(free_mask, stride, source, target):
        result = label(free_mask, stride, source, target)
        proofs.append((free_mask[source] != 0, result))
        return result

    monkeypatch.setattr(W, "_unreached_pops", recorded)
    rng = random.Random(20261018)
    checkpoint = W.PROOF_CHECKPOINT
    shortcut = resumed = cut_by_budget = blocked_start = 0
    for _ in range(16):
        world, agent, obstacles, pockets, leaky, crossings = walled_case(rng)
        fast = W._Grid(world, agent, obstacles, 0.0)
        slow = FreeCells(OracleGrid(world, agent, obstacles, 0.0))
        free = sorted(slow.cells)
        # Blocked cells next to a free one: A* pops them, then floods on.
        edge = [(x, y) for x in range(fast.nx) for y in range(fast.ny)
                if (x, y) not in slow.cells
                and any(slow.free((x + dx, y + dy)) for dx, dy, _ in _NEIGHBORS)]
        pairs = [(fast.cell(a), fast.cell(b)) for a, b in crossings]
        for start in (rng.choice(free), rng.choice(edge)):
            pairs += [(start, fast.cell(p)) for p in pockets + [leaky]]
            pairs.append((start, rng.choice(free)))
        pairs += [(fast.cell(leaky), fast.cell(p)) for p in pockets]
        for start, goal in pairs:
            for budget in (checkpoint, rng.randint(checkpoint + 1, 1500), 50_000):
                del proofs[:]
                want = oracle_astar(slow, start, goal, budget)
                assert W._astar(fast, start, goal, budget) == want
                for start_free, result in proofs:
                    blocked_start += not start_free
                    if result is None:
                        resumed += 1
                        assert want[1] > checkpoint if want[0] else want[1] == budget
                    else:
                        shortcut += 1
                        assert want[0] is None
                        cut_by_budget += want[1] == budget < result
    assert shortcut >= 100 and resumed >= 20 and cut_by_budget >= 40 and blocked_start >= 40


# ------------------------------------------ stack helpers against oracles


def oracle_stack_chain_up(world, obj_id):
    above = []
    frontier = [obj_id]
    order = sorted(world.objects)
    while frontier:
        current = frontier.pop(0)
        for oid in order:
            if world.objects[oid].stack_on == current:
                above.append(oid)
                frontier.append(oid)
    return above


def oracle_stack_top(world, obj_id):
    top = obj_id
    while True:
        nxt = next((oid for oid in sorted(world.objects)
                    if world.objects[oid].stack_on == top), None)
        if nxt is None:
            return top
        top = nxt


def test_stack_helpers_match_the_scanning_oracles():
    rng = random.Random(20261020)
    for _ in range(200):
        ids = [f"s{i}" for i in rng.sample(range(40), rng.randint(1, 15))]
        objects = []
        for k, oid in enumerate(ids):
            # Supports are drawn from earlier ids only, so stacks stay
            # acyclic while id order and stacking order differ.
            support = rng.choice([None, "ghost"] + ids[:k])
            objects.append(Obj(oid, "circle", (0.02,), 0.0, 0.0, movable=True,
                               stack_on=support))
        world = arm_world(objects=objects)
        state = snapshot(world)
        for oid in ids:
            assert W.stack_chain_up(world, oid) == oracle_stack_chain_up(world, oid)
            assert W.stack_top(world, oid) == oracle_stack_top(world, oid)
            bare = not any(o.stack_on == oid for o in world.objects.values())
            assert (Fact("clear", (oid,)) in state.facts) == bare


def two_stack_world():
    """b rests on a."""
    return arm_world(objects=[
        Obj("a", "circle", (0.03,), 0.1, 0.0, movable=True),
        Obj("b", "circle", (0.03,), 0.1, 0.0, movable=True, stack_on="a")])


@pytest.mark.parametrize("manipulated,dest", [
    ("a", "b"),  # a would rest on b, which rests on a
    ("b", "a"),  # the top of a's stack is b itself
])
def test_execute_refuses_to_close_a_stacking_cycle(manipulated, dest):
    world = two_stack_world()
    result = MotionResult(True, ((0.0, 0.0), (0.1, 0.0)), 0, (), (0.1, 0.0),
                          world_signature(world))
    with pytest.raises(InvalidQuery, match="stacking cycle"):
        execute(world, "arm", result, transfer_action("move", manipulated, dest))


def test_stack_walks_stop_at_a_cycle():
    world = two_stack_world()
    world = with_objects(world, replace(world.objects["a"], stack_on="b"))
    assert W.stack_chain_down(world, "a") == ["b"]
    assert W.stack_chain_down(world, "b") == ["a"]
    state = snapshot(world)
    assert Fact("on", ("a", "b")) in state.facts
    assert Fact("on", ("b", "a")) in state.facts


def test_stack_chain_up_and_top_stop_at_a_cycle():
    """a, b and c rest on each other in a ring, d rests on a, e on itself."""
    world = arm_world(objects=[
        Obj(oid, "circle", (0.03,), 0.1, 0.0, movable=True, stack_on=support)
        for oid, support in (("a", "c"), ("b", "a"), ("c", "b"), ("d", "a"), ("e", "e"))])
    assert W.stack_chain_up(world, "a") == ["b", "d", "c"]
    assert W.stack_chain_up(world, "c") == ["a", "b", "d"]
    assert W.stack_top(world, "a") == "c"
    assert W.stack_top(world, "b") == "a"
    assert W.stack_chain_up(world, "d") == []
    assert W.stack_top(world, "d") == "d"
    assert W.stack_chain_up(world, "e") == []
    assert W.stack_top(world, "e") == "e"
