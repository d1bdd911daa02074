"""Grounding and dispatch tests: agent choice, travel folding, handovers."""

import math
from dataclasses import replace

import pytest

from taskmotion import interface
from taskmotion.domain import ActionTemplate, Condition, Fact, MotionClass
from taskmotion.interface import (
    TRANSIT_PREFIX,
    DispatchResult,
    GroundingFailed,
    dispatch,
    goal_candidates,
    ground,
)
from taskmotion.world import Agent, Marker, Obj, World, snapshot
from taskmotion.domain import Box


def two_arm_world():
    """Left arm reaches the west half, right arm the east half; the pad
    marker in the middle is reachable by both."""
    left = Agent("arm_left", "arm", anchor=(-0.4, 0.0), reach=0.5, config=(-0.4, 0.0))
    right = Agent("arm_right", "arm", anchor=(0.4, 0.0), reach=0.5, config=(0.4, 0.0))
    markers = {"pad": Marker("pad", 0.0, 0.2, snap=0.05, handover=True),
               "west": Marker("west", -0.6, 0.0, snap=0.05),
               "east": Marker("east", 0.6, 0.0, snap=0.05)}
    return World(bounds=(-1.0, -0.5, 1.0, 0.7),
                 agents={"arm_left": left, "arm_right": right}, markers=markers,
                 objects={"cup": Obj("cup", "circle", (0.03,), -0.6, 0.0, movable=True)})


def with_entries(world, **maps):
    """The world with these markers, objects or agents added or replaced,
    e.g. `with_entries(world, markers=[marker])`, keyed by id."""
    return replace(world, **{name: {**getattr(world, name), **{e.id: e for e in entries}}
                             for name, entries in maps.items()})


def transfer(name, obj, dest, **kw):
    return ActionTemplate(name, MotionClass.TRANSFER, verb="transfer",
                          manipulated=obj, dest=dest, **kw)


def test_single_arm_assignment_prefers_reaching_arm():
    world = two_arm_world()
    steps = ground(world, (transfer("bring", "cup", "west"),))
    assert len(steps) == 1
    assert steps[0].agent_id == "arm_left"


def test_unreachable_transfer_rewrites_through_handover_marker():
    world = two_arm_world()
    steps = ground(world, (transfer("bring", "cup", "east"),))
    names = [s.action.name for s in steps]
    assert names == ["bring_handover_give", "bring_handover_take"]
    assert steps[0].agent_id == "arm_left"
    assert steps[1].agent_id == "arm_right"
    assert all(s.action.motion_class is MotionClass.HANDOVER for s in steps)
    assert steps[0].action.dest == "pad"
    assert steps[1].action.source == "pad"
    assert steps[1].action.dest == "east"


def test_handover_dispatch_moves_object_across():
    world = two_arm_world()
    grounding = ground(world, (transfer("bring", "cup", "east"),))
    outcome = dispatch(world, grounding)
    assert outcome.ok, outcome.failure
    cup = outcome.world.objects["cup"]
    assert cup.x == pytest.approx(0.6)
    assert cup.y == pytest.approx(0.0)
    assert Fact("at", ("cup", "east")) in snapshot(outcome.world).facts
    assert [s.motion_class for s in outcome.steps] == [MotionClass.HANDOVER,
                                                       MotionClass.HANDOVER]
    assert outcome.steps[0].agent == "arm_left"
    assert outcome.steps[1].agent == "arm_right"


def test_grounding_fails_without_any_route():
    world = with_entries(two_arm_world(),
                         markers=[Marker("pad", 0.0, 0.2, snap=0.05, handover=False)])
    with pytest.raises(GroundingFailed):
        ground(world, (transfer("bring", "cup", "east"),))


def test_grounding_fails_without_any_action():
    with pytest.raises(GroundingFailed, match="no actions to execute"):
        ground(two_arm_world(), ())


def mobile_world():
    base = Agent("cart", "base", anchor=(0.0, 0.0), radius=0.1, config=(0.0, 0.0))
    arm = Agent("arm", "arm", anchor=(0.0, 0.15), reach=0.4, config=(0.0, 0.15),
                mount="cart", mount_off=(0.0, 0.15))
    markers = {"shelf_front": Marker("shelf_front", 1.4, 0.0, snap=0.06),
               "shelf_slot": Marker("shelf_slot", 1.4, 0.4, snap=0.04)}
    return World(bounds=(-0.5, -0.5, 2.0, 0.8), agents={"cart": base, "arm": arm},
                 markers=markers,
                 objects={"jar": Obj("jar", "circle", (0.03,), 1.42, 0.38, movable=True)})


def test_area_action_folds_in_base_travel():
    world = mobile_world()
    grasp = ActionTemplate("take_jar", MotionClass.TRANSFER, verb="grasp",
                           manipulated="jar", area="shelf_front")
    grounding = ground(world, (grasp,))
    names = [s.action.name for s in grounding]
    assert names == ["approach_shelf_front", "take_jar"]
    inserted = grounding[0]
    assert inserted.action.name.startswith(TRANSIT_PREFIX)
    assert inserted.action.motion_class is MotionClass.TRANSIT
    assert (inserted.agent_id, inserted.action.area) == ("cart", "shelf_front")
    outcome = dispatch(world, grounding)
    assert outcome.ok, outcome.failure
    assert outcome.world.agents["arm"].holding == "jar"
    # Base parked within the marker's snap radius.
    bx, by = outcome.world.agents["cart"].config
    assert math.hypot(bx - 1.4, by - 0.0) <= 0.06 + 1e-9
    assert [s.motion_class for s in outcome.steps] == [MotionClass.TRANSIT,
                                                       MotionClass.TRANSFER]


@pytest.mark.parametrize("agent", ["arm", "ghost"])
def test_a_transit_needs_a_base_agent_of_the_world(agent):
    walk = ActionTemplate("walk", MotionClass.TRANSIT, agent=agent, area="shelf_front")
    with pytest.raises(GroundingFailed, match="is not a base agent"):
        ground(mobile_world(), (walk,))
    assert ground(mobile_world(), (replace(walk, agent="cart"),))[0].agent_id == "cart"


def test_transit_skipped_when_base_already_parked():
    world = mobile_world()
    grasp = ActionTemplate("take_jar", MotionClass.TRANSFER, verb="grasp",
                           manipulated="jar", area="shelf_front")
    grounding = ground(world, (grasp,))
    first = dispatch(world, grounding)
    assert first.ok
    # Re-ground a second action in the same area: the transit step grounds
    # again but dispatch skips it without planning.
    put = ActionTemplate("stow_jar", MotionClass.TRANSFER, verb="put",
                         manipulated="jar", dest="shelf_slot", area="shelf_front")
    second = dispatch(first.world, ground(first.world, (put,)))
    assert second.ok, second.failure
    assert [s.action for s in second.steps] == ["stow_jar"]
    jar = second.world.objects["jar"]
    assert (jar.x, jar.y) == (1.4, 0.4)


def test_put_binds_to_the_holding_agent():
    world = two_arm_world()
    grasp = ActionTemplate("lift", MotionClass.TRANSFER, verb="grasp",
                           manipulated="cup")
    put = ActionTemplate("drop", MotionClass.TRANSFER, verb="put",
                         manipulated="cup", dest="west")
    grounding = ground(world, (grasp, put))
    assert grounding[1].agent_id is None  # deferred until someone holds
    outcome = dispatch(world, grounding)
    assert outcome.ok
    assert outcome.steps[1].agent == "arm_left"
    assert outcome.world.agents["arm_left"].holding is None


def test_precondition_failure_reported_with_condition():
    world = two_arm_world()
    guarded = ActionTemplate(
        "guarded_move", MotionClass.TRANSFER, verb="transfer", manipulated="cup",
        dest="west", preconditions=(Condition(Fact("approved", ())),))
    outcome = dispatch(world, ground(world, (guarded,)))
    assert not outcome.ok
    assert outcome.failure.kind == "precondition"
    assert "approved" in outcome.failure.detail
    assert outcome.steps == []


def test_motion_failure_carries_obstructors():
    # A movable wall tall enough to cut the left arm's whole reach disc.
    world = with_entries(two_arm_world(), objects=[
        Obj("wall_of_cans", "box", (0.08, 1.4), -0.2, 0.1, movable=True)])
    move = transfer("stash", "cup", "pad")
    outcome = dispatch(world, ground(world, (move,)))
    assert not outcome.ok
    assert outcome.failure.kind == "motion"
    assert outcome.failure.obstructors == ("wall_of_cans",)
    assert outcome.steps[-1].feasible is False
    assert outcome.steps[-1].attempts >= 1


def test_start_outside_the_grid_is_an_invalid_failure():
    world = two_arm_world()
    world = with_entries(world, agents=[replace(world.agents["arm_left"], config=(-1.2, 0.0))])
    outcome = dispatch(world, ground(world, (transfer("bring", "cup", "west"),)))
    assert not outcome.ok
    assert outcome.failure.kind == "invalid"
    assert "outside region" in outcome.failure.detail
    # The rejected query is recorded like any failed step, as one attempt.
    assert [(s.feasible, s.attempts) for s in outcome.steps] == [(False, 1)]


def test_dispatch_counts_every_planning_attempt(monkeypatch):
    plan_calls = 0
    plan = interface.plan_motion

    def counting(*args):
        nonlocal plan_calls
        plan_calls += 1
        return plan(*args)

    monkeypatch.setattr(interface, "plan_motion", counting)
    world = two_arm_world()
    grounding = ground(world, (transfer("bring", "cup", "east"),))
    outcome = dispatch(world, grounding)
    assert outcome.ok
    assert plan_calls > 0
    assert sum(s.attempts for s in outcome.steps) == plan_calls


def test_goal_candidates_are_deterministic_and_inside_region():
    region = Box(0.5, 0.5, 0.035, 0.035)
    a = goal_candidates((0.5, 0.5), region, 3, seed=42)
    b = goal_candidates((0.5, 0.5), region, 3, seed=42)
    assert a == b
    assert a[0] == (0.5, 0.5)
    assert len(a) == 4
    for x, y in a:
        assert abs(x - 0.5) <= 0.035 + 1e-12
        assert abs(y - 0.5) <= 0.035 + 1e-12
    c = goal_candidates((0.5, 0.5), region, 3, seed=43)
    assert c != a


def test_degenerate_region_gets_single_attempt():
    assert goal_candidates((0.1, 0.2), Box(0.1, 0.2), 5, seed=7) == [(0.1, 0.2)]


def test_retry_lands_on_alternate_goal_point():
    """First goal point blocked by a movable; an alternate inside the
    marker region is free, so the step succeeds on a later attempt."""
    world = with_entries(
        two_arm_world(), markers=[Marker("west", -0.6, 0.0, snap=0.14)],
        objects=[Obj("blocker", "circle", (0.02,), -0.6, 0.0, movable=True),
                 Obj("cup", "circle", (0.03,), -0.3, 0.3, movable=True)])
    move = transfer("park", "cup", "west")
    outcome = dispatch(world, ground(world, (move,)), retries=4)
    assert outcome.ok, outcome.failure
    step = outcome.steps[-1]
    assert step.attempts > 1
    cup = outcome.world.objects["cup"]
    assert math.hypot(cup.x + 0.6, cup.y) <= 0.14  # still within the marker snap
