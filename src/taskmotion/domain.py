"""Symbolic task layer: facts, states, action templates, goal tests.

The symbolic model is deliberately small: ground facts over declared
predicates, STRIPS-style actions with positive and negated preconditions,
add/delete effects, and a motion class that tells the geometric layer how
an action binds to the world. Everything here is pure; the geometric
world owns the authoritative runtime state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple


class DomainError(Exception):
    """Base for symbolic-layer failures."""


class PreconditionViolated(DomainError):
    """An action was applied in a state that does not satisfy it."""

    def __init__(self, action: str, condition: "Condition"):
        self.action = action
        self.condition = condition
        super().__init__(f"action {action}: unmet precondition {condition.text()}")


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

class Fact(NamedTuple):
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

# Predicates the geometric snapshot derives; they never live in the stored
# fact set and need no declaration in scenario files.
DERIVED_PREDICATES = frozenset(BUILTIN_PREDICATE_DECLS)


@dataclass(frozen=True)
class ActionTemplate:
    """Ground action: symbolic change plus geometric binding slots.

    Only the agent (and the concrete goal configuration) stays open; the
    planner's interface layer binds those when it grounds the action.
    `takes` and `places` are the one reading of `verb`: only a transfer or
    a handover names an object (`manipulated`) or a destination (`dest`).
    """

    name: str
    motion_class: MotionClass
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
        elif self.manipulated is not None or self.dest is not None:
            raise InvalidState(f"action {self.name}: a {self.motion_class.value} action "
                               "moves no object")

    @property
    def takes(self) -> str | None:
        """The object a grasp or a transfer picks up, else None."""
        return None if self.verb == "put" else self.manipulated

    @property
    def places(self) -> str | None:
        """Where a put or a transfer sets its object down, else None."""
        return None if self.verb == "grasp" else self.dest

    def is_geometric(self) -> bool:
        return self.motion_class in GEOMETRIC_CLASSES


@dataclass(frozen=True)
class Box:
    """Axis-aligned region: center plus half extents."""

    cx: float
    cy: float
    hw: float = 0.0
    hh: float = 0.0


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


def is_goal(state: frozenset[Fact], goal: Iterable[Fact]) -> bool:
    """Whether every goal fact holds: the goal is their conjunction."""
    return all(f in state for f in goal)
