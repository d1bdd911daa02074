"""Symbolic layer: facts, action application, goal tests, regions."""

import pytest

from taskmotion.domain import (
    ActionTemplate,
    Box,
    Condition,
    Fact,
    GoalSpec,
    InvalidState,
    MotionClass,
    PreconditionViolated,
    PredicateDecl,
    UnknownEntity,
    apply_action,
    apply_chain,
    chain_applicable,
    is_goal,
    state_region,
    validate_facts,
)


def fact(text):
    return Fact.parse(text)


def move(name, obj, src, dst, extra_not=()):
    return ActionTemplate(
        name=name,
        motion_class=MotionClass.TRANSFER,
        preconditions=(Condition(fact(f"at_peg {obj} {src}")),)
        + tuple(Condition(fact(t), negated=True) for t in extra_not),
        effects_add=frozenset({fact(f"at_peg {obj} {dst}")}),
        effects_del=frozenset({fact(f"at_peg {obj} {src}")}),
        manipulated=obj,
        source=src,
        dest=dst,
    )


HANOI3_START = frozenset({fact("at_peg d1 pegA"), fact("at_peg d2 pegA"), fact("at_peg d3 pegA")})


def test_apply_action_moves_top_disk():
    action = move("move_d1_pegA_pegB", "d1", "pegA", "pegB")
    result = apply_action(HANOI3_START, action)
    assert fact("at_peg d1 pegB") in result
    assert fact("at_peg d1 pegA") not in result
    assert fact("at_peg d2 pegA") in result


def test_apply_action_rejects_unmet_positive_precondition():
    action = move("move_d1_pegB_pegC", "d1", "pegB", "pegC")
    with pytest.raises(PreconditionViolated) as err:
        apply_action(HANOI3_START, action)
    assert "at_peg d1 pegB" in str(err.value)


def test_apply_action_rejects_violated_negative_precondition():
    # d2 may not move while d1 shares its peg.
    action = move("move_d2_pegA_pegB", "d2", "pegA", "pegB",
                  extra_not=("at_peg d1 pegA", "at_peg d1 pegB"))
    with pytest.raises(PreconditionViolated) as err:
        apply_action(HANOI3_START, action)
    assert err.value.condition.negated


def test_first_failing_pattern_is_reported():
    action = ActionTemplate(
        name="double_gate",
        motion_class=MotionClass.SYMBOLIC,
        preconditions=(Condition(fact("p x")), Condition(fact("q x"))),
    )
    with pytest.raises(PreconditionViolated) as err:
        apply_action(frozenset(), action)
    assert err.value.condition.fact.predicate == "p"


def test_chain_applicability():
    first = move("m1", "d1", "pegA", "pegB")
    second = move("m2", "d1", "pegB", "pegC")
    assert chain_applicable(HANOI3_START, [first, second])
    assert not chain_applicable(HANOI3_START, [second, first])
    final = apply_chain(HANOI3_START, [first, second])
    assert fact("at_peg d1 pegC") in final


def test_action_frame_consistency_enforced():
    with pytest.raises(InvalidState):
        ActionTemplate(
            name="broken",
            motion_class=MotionClass.SYMBOLIC,
            effects_add=frozenset({fact("p x")}),
            effects_del=frozenset({fact("p x")}),
        )


def test_transfer_requires_manipulated_and_dest():
    with pytest.raises(InvalidState):
        ActionTemplate(name="t", motion_class=MotionClass.TRANSFER)
    with pytest.raises(InvalidState):
        ActionTemplate(name="t", motion_class=MotionClass.TRANSFER,
                       manipulated="d1", verb="transfer")


def test_transfer_and_handover_reject_the_object_as_its_own_destination():
    # Such a step would stack the object on itself, and walking its
    # support chain would then never end.
    for klass in (MotionClass.TRANSFER, MotionClass.HANDOVER):
        with pytest.raises(InvalidState, match="d1 cannot be put on itself"):
            ActionTemplate(name="t", motion_class=klass, manipulated="d1",
                           dest="d1")


def test_symbolic_action_must_not_carry_geometry():
    with pytest.raises(InvalidState):
        ActionTemplate(name="s", motion_class=MotionClass.WAIT, manipulated="d1")


def test_validate_facts_checks_arity_predicate_and_entities():
    preds = {"on": PredicateDecl("on", 2), "clear": PredicateDecl("clear", 1)}
    entities = frozenset({"d1", "pegA"})
    good = validate_facts([fact("on d1 pegA"), fact("clear d1")], preds, entities)
    assert fact("on d1 pegA") in good
    with pytest.raises(UnknownEntity):
        validate_facts([fact("under d1 pegA")], preds, entities)
    with pytest.raises(InvalidState):
        validate_facts([fact("on d1")], preds, entities)
    with pytest.raises(UnknownEntity):
        validate_facts([fact("clear ghost")], preds, entities)


def test_exclusive_predicate_rejects_two_places_for_one_object():
    preds = {"at_peg": PredicateDecl("at_peg", 2, exclusive=True)}
    entities = frozenset({"d1", "pegA", "pegB"})
    with pytest.raises(InvalidState):
        validate_facts([fact("at_peg d1 pegA"), fact("at_peg d1 pegB")], preds, entities)


def test_is_goal():
    goal = GoalSpec(facts=(fact("at_peg d1 pegC"),))
    assert not is_goal(HANOI3_START, goal)
    assert is_goal(frozenset({fact("at_peg d1 pegC")}), goal)
    assert is_goal(HANOI3_START, GoalSpec())


class PointScenario:
    def __init__(self, points):
        self.points = points

    def entity_point(self, entity):
        return self.points.get(entity)


def test_state_region_binds_objects_to_places_and_hands():
    scenario = PointScenario({"pegB": (0.3, 0.7), "arm_left": (-0.2, 0.1)})
    regions = state_region([fact("on d1 pegB"), fact("holding arm_left glass1")], scenario)
    assert regions["d1"].contains(0.3, 0.7)
    assert not regions["d1"].contains(0.9, 0.7)
    assert regions["glass1"].contains(-0.2, 0.1)
    assert state_region([], scenario) == {}


def test_box_contains_tolerance():
    box = Box(0.0, 0.0, 0.05, 0.05)
    assert box.contains(0.05, -0.05)
    assert not box.contains(0.0501, 0.0)
