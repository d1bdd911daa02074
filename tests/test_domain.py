"""Symbolic layer: facts, action application, goal tests."""

import pytest

from taskmotion.domain import (
    ActionTemplate,
    Condition,
    Fact,
    InvalidState,
    MotionClass,
    PreconditionViolated,
    apply_action,
    apply_chain,
    chain_applicable,
    is_goal,
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


@pytest.mark.parametrize("role", ["manipulated", "dest"])
def test_a_transit_names_no_object_and_no_destination(role):
    """A transit drives to its area; only a transfer or a handover names
    an object or a destination."""
    with pytest.raises(InvalidState, match="t: a transit action moves no object"):
        ActionTemplate(name="t", motion_class=MotionClass.TRANSIT, area="dock", **{role: "d1"})


# (motion class, verb) -> (takes, places) for an action that names
# `manipulated="d1"` and `dest="pegB"` where its class allows them.
ROLES = {
    (MotionClass.TRANSFER, "transfer"): ("d1", "pegB"),
    (MotionClass.TRANSFER, "grasp"): ("d1", None),
    (MotionClass.TRANSFER, "put"): (None, "pegB"),
    (MotionClass.HANDOVER, "transfer"): ("d1", "pegB"),
    (MotionClass.HANDOVER, "grasp"): ("d1", None),
    (MotionClass.HANDOVER, "put"): (None, "pegB"),
    **{(klass, verb): (None, None)
       for klass in (MotionClass.TRANSIT, MotionClass.SYMBOLIC, MotionClass.WAIT)
       for verb in ("transfer", "grasp", "put")},
}


@pytest.mark.parametrize("klass,verb", sorted(ROLES, key=lambda k: (k[0].value, k[1])),
                         ids=lambda v: getattr(v, "value", v))
def test_takes_and_places_read_the_verb_of_every_motion_class(klass, verb):
    roles = ({"manipulated": "d1", "dest": "pegB"}
             if klass in (MotionClass.TRANSFER, MotionClass.HANDOVER) else {})
    action = ActionTemplate(name="a", motion_class=klass, verb=verb, **roles)
    assert (action.takes, action.places) == ROLES[klass, verb]


def test_a_fact_keeps_the_hash_order_and_repr_of_its_fields():
    """A fact is the tuple of its fields: it hashes, compares and sorts as
    that tuple does, so set orders and digests do not depend on its type."""
    on = Fact("on", ("d1", "pegA"))
    assert hash(on) == hash(("on", ("d1", "pegA")))
    assert repr(on) == "Fact(predicate='on', args=('d1', 'pegA'))"
    assert on == Fact.parse("on d1 pegA") and on.text() == "on d1 pegA"
    assert Fact("carrying").args == ()
    assert sorted([on, Fact("clear", ("d1",)), Fact("on", ("a", "b"))]) == [
        Fact("clear", ("d1",)), Fact("on", ("a", "b")), on]


def test_is_goal():
    goal = (fact("at_peg d1 pegC"),)
    assert not is_goal(HANOI3_START, goal)
    assert is_goal(frozenset({fact("at_peg d1 pegC")}), goal)
    assert is_goal(HANOI3_START, ())
