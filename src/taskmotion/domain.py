"""Symbolic task layer: facts, states, action templates, goal tests.

The symbolic model is deliberately small: ground facts over declared
predicates, STRIPS-style actions with positive and negated preconditions,
add/delete effects, and a motion class that tells the geometric layer how
an action binds to the world. Everything here is pure; the geometric
world owns the authoritative runtime state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping


class DomainError(Exception):
    """Base for symbolic-layer failures."""


class PreconditionViolated(DomainError):
    """An action was applied in a state that does not satisfy it."""

    def __init__(self, action: str, condition: "Condition"):
        self.action = action
        self.condition = condition
        super().__init__(f"action {action}: unmet precondition {condition.text()}")


class UnknownEntity(DomainError):
    """A fact or binding references an undeclared entity or predicate."""


class InvalidState(DomainError):
    """A fact set violates declared predicate constraints."""


class MotionClass(Enum):
    TRANSIT = "transit"
    TRANSFER = "transfer"
    HANDOVER = "handover"
    SYMBOLIC = "symbolic"
    WAIT = "wait"


GEOMETRIC_CLASSES = (MotionClass.TRANSIT, MotionClass.TRANSFER, MotionClass.HANDOVER)

# Geometric verbs a transfer-like action can carry. "transfer" is a fused
# pick-and-place, "grasp" only attaches, "put" only detaches.
VERBS = ("transfer", "grasp", "put")

# Predicates the geometric snapshot derives; they never live in the stored
# fact set and need no declaration in scenario files.
DERIVED_PREDICATES = frozenset({"on", "clear", "holding", "held", "carrying", "at", "at_peg"})


@dataclass(frozen=True, order=True)
class Fact:
    """A ground atom: predicate name plus entity arguments."""

    predicate: str
    args: tuple[str, ...] = ()

    def text(self) -> str:
        return " ".join((self.predicate,) + self.args)

    @classmethod
    def parse(cls, text: str) -> "Fact":
        parts = tuple(text.split())
        if not parts:
            raise ValueError("empty fact text")
        return cls(parts[0], parts[1:])


@dataclass(frozen=True)
class Condition:
    """A precondition pattern: a fact that must hold, or must not."""

    fact: Fact
    negated: bool = False

    def text(self) -> str:
        return ("not " if self.negated else "") + self.fact.text()

    def holds(self, facts: frozenset[Fact]) -> bool:
        return (self.fact in facts) != self.negated


@dataclass(frozen=True)
class PredicateDecl:
    """Declared predicate: fixed arity, optionally exclusive.

    An exclusive predicate admits at most one fact per first argument,
    e.g. an object cannot rest at two places at once.
    """

    name: str
    arity: int
    exclusive: bool = False


BUILTIN_PREDICATE_DECLS = {
    "on": PredicateDecl("on", 2, exclusive=True),
    "clear": PredicateDecl("clear", 1),
    "holding": PredicateDecl("holding", 2, exclusive=True),
    "held": PredicateDecl("held", 1),
    "carrying": PredicateDecl("carrying", 0),
    "at": PredicateDecl("at", 2),
    "at_peg": PredicateDecl("at_peg", 2, exclusive=True),
}


@dataclass(frozen=True)
class ActionTemplate:
    """Ground action: symbolic change plus geometric binding slots.

    Only the agent (and the concrete goal configuration) stays open; the
    planner's interface layer binds those when it grounds the action.
    """

    name: str
    motion_class: MotionClass
    params: tuple[tuple[str, str], ...] = ()
    preconditions: tuple[Condition, ...] = ()
    effects_add: frozenset[Fact] = frozenset()
    effects_del: frozenset[Fact] = frozenset()
    verb: str = "transfer"
    manipulated: str | None = None
    source: str | None = None
    dest: str | None = None
    agent: str | None = None
    area: str | None = None
    duration: float = 0.0

    def __post_init__(self):
        overlap = self.effects_add & self.effects_del
        if overlap:
            raise InvalidState(
                f"action {self.name}: facts both added and deleted: "
                + ", ".join(sorted(f.text() for f in overlap))
            )
        if self.motion_class in (MotionClass.TRANSFER, MotionClass.HANDOVER):
            if self.manipulated is None:
                raise InvalidState(f"action {self.name}: transfer without a manipulated object")
            if self.verb not in VERBS:
                raise InvalidState(f"action {self.name}: unknown verb {self.verb!r}")
            if self.verb in ("transfer", "put") and self.dest is None:
                raise InvalidState(f"action {self.name}: verb {self.verb} needs a destination")
            if self.dest == self.manipulated:
                raise InvalidState(f"action {self.name}: {self.manipulated} cannot be put on itself")
        elif self.motion_class in (MotionClass.SYMBOLIC, MotionClass.WAIT):
            if self.manipulated is not None or self.dest is not None:
                raise InvalidState(f"action {self.name}: symbolic action carries geometry")

    def is_geometric(self) -> bool:
        return self.motion_class in GEOMETRIC_CLASSES


@dataclass(frozen=True)
class GoalSpec:
    """Conjunction of facts that must all hold."""

    facts: tuple[Fact, ...] = ()


@dataclass(frozen=True)
class Box:
    """Axis-aligned region: center plus half extents."""

    cx: float
    cy: float
    hw: float = 0.0
    hh: float = 0.0

    def contains(self, x: float, y: float, tol: float = 1e-9) -> bool:
        return abs(x - self.cx) <= self.hw + tol and abs(y - self.cy) <= self.hh + tol


def validate_facts(facts: Iterable[Fact], predicates: Mapping[str, PredicateDecl],
                   entities: frozenset[str] | None = None) -> frozenset[Fact]:
    """Check facts against declarations; returns them as a frozenset."""
    out = set()
    seen_exclusive: dict[tuple[str, str], Fact] = {}
    for fact in facts:
        decl = predicates.get(fact.predicate)
        if decl is None:
            raise UnknownEntity(f"undeclared predicate {fact.predicate!r}")
        if len(fact.args) != decl.arity:
            raise InvalidState(
                f"fact {fact.text()!r}: arity {len(fact.args)} != declared {decl.arity}"
            )
        if entities is not None:
            for arg in fact.args:
                if arg not in entities:
                    raise UnknownEntity(f"fact {fact.text()!r}: unknown entity {arg!r}")
        if decl.exclusive and fact.args:
            key = (fact.predicate, fact.args[0])
            other = seen_exclusive.get(key)
            if other is not None and other != fact:
                raise InvalidState(
                    f"exclusive predicate {fact.predicate}: {other.text()!r} "
                    f"conflicts with {fact.text()!r}"
                )
            seen_exclusive[key] = fact
        out.add(fact)
    return frozenset(out)


def applicable(state: frozenset[Fact], action: ActionTemplate) -> bool:
    return all(c.holds(state) for c in action.preconditions)


def apply_action(state: frozenset[Fact], action: ActionTemplate) -> frozenset[Fact]:
    """State transition: check preconditions, then delete and add effects."""
    for cond in action.preconditions:
        if not cond.holds(state):
            raise PreconditionViolated(action.name, cond)
    return (state - action.effects_del) | action.effects_add


def apply_chain(state: frozenset[Fact], actions: Iterable[ActionTemplate]) -> frozenset[Fact]:
    for action in actions:
        state = apply_action(state, action)
    return state


def chain_applicable(state: frozenset[Fact], actions: Iterable[ActionTemplate]) -> bool:
    try:
        apply_chain(state, actions)
    except PreconditionViolated:
        return False
    return True


def is_goal(state: frozenset[Fact], goal: GoalSpec) -> bool:
    return all(f in state for f in goal.facts)


def action_motion_class(action: ActionTemplate) -> tuple[MotionClass, dict[str, str | None]]:
    """Motion class plus the geometric binding slots of an action."""
    binding = {
        "manipulated": action.manipulated,
        "source": action.source,
        "dest": action.dest,
        "agent": action.agent,
        "area": action.area,
    }
    return action.motion_class, binding


def state_region(facts: Iterable[Fact], scenario) -> dict[str, Box]:
    """Geometric constraints induced by a fact set.

    Maps entity id -> pose box. `on`/`at`/`at_peg` pin an object near its
    support or marker; `holding` binds the object to the arm's hand. An
    empty fact set constrains nothing. The scenario supplies entity
    placement points via `entity_point`.
    """
    regions: dict[str, Box] = {}
    for fact in facts:
        if fact.predicate in ("on", "at_peg", "at") and len(fact.args) == 2:
            obj, place = fact.args
            point = scenario.entity_point(place)
            if point is not None:
                regions[obj] = Box(point[0], point[1], 0.05, 0.05)
        elif fact.predicate == "holding" and len(fact.args) == 2:
            agent, obj = fact.args
            point = scenario.entity_point(agent)
            if point is not None:
                regions[obj] = Box(point[0], point[1], 0.02, 0.02)
    return regions
