"""Bridge between selected task candidates and the geometric world.

Grounding turns the actions of a candidate into an executable sequence:
it picks which agent performs each motion, prepends base travel when an
action names a work area the base is not currently at, and rewrites a
transfer whose endpoints no single arm can reach into two handover legs
through a marker flagged for that purpose.

Dispatch then walks the grounded sequence against the live world. Each
geometric step is planned just in time (so it sees every pose change the
previous steps made), retried across a deterministic low-discrepancy set
of alternative goal points when the action allows play in its goal
region, and executed on success. `_step_goal` is the one place a step's
goal point and region are derived; every query searches under
`world.DEFAULT_MAX_EXPANSIONS`. The first failure stops the walk and is
reported with the blocking objects, so the caller can decide between
rearrangement, trying another candidate, or giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .domain import ActionTemplate, Box, Fact, MotionClass, applicable
from .world import (
    Agent,
    InvalidQuery,
    MotionQuery,
    SearchMemo,
    World,
    entity_point,
    execute,
    path_length,
    plan_motion,
    reaches,
    snapshot,
)

TRANSIT_PREFIX = "approach_"
HANDOVER_SUFFIX = ("_handover_give", "_handover_take")


class InterfaceError(Exception):
    pass


class GroundingFailed(InterfaceError):
    """No agent assignment makes the action geometrically plausible."""


@dataclass(frozen=True)
class GroundedAction:
    """One dispatchable step: an action plus its agent binding.

    `agent_id` of None defers the choice to execution time (a put binds
    to whoever is holding the object by then).
    """

    action: ActionTemplate
    agent_id: str | None


@dataclass(frozen=True)
class GroundingResult:
    steps: tuple[GroundedAction, ...]


@dataclass(frozen=True)
class StepOutcome:
    action: str
    agent: str
    motion_class: MotionClass
    feasible: bool
    attempts: int
    expansions: int
    path_length: float
    sim_time: float
    plan_times: tuple[float, ...] = ()  # wall time of each planned attempt

    @property
    def plan_time(self) -> float:
        return sum(self.plan_times)


@dataclass
class DispatchFailure:
    kind: str  # "motion" | "precondition" | "grounding" | "invalid"
    action: str
    obstructors: tuple[str, ...] = ()
    detail: str = ""


@dataclass
class DispatchResult:
    ok: bool
    world: World
    steps: list[StepOutcome] = field(default_factory=list)
    failure: DispatchFailure | None = None


# ----------------------------------------------------------------- helpers


def _needed_points(world: World, action: ActionTemplate) -> list[tuple[float, float]]:
    points = []
    if action.verb in ("grasp", "transfer") and action.manipulated is not None:
        points.append(entity_point(world, action.manipulated))
    if action.verb in ("put", "transfer") and action.dest is not None:
        points.append(entity_point(world, action.dest))
    return points


def _prospective_anchor(world: World, arm: Agent,
                        action: ActionTemplate) -> tuple[float, float]:
    """Arm anchor after the base parks at the action's area, if any."""
    if action.area is None or arm.mount is None:
        return arm.anchor
    marker = world.markers[action.area]
    return (marker.x + arm.mount_off[0], marker.y + arm.mount_off[1])


def _arms(world: World) -> list[Agent]:
    return [world.agents[aid] for aid in sorted(world.agents)
            if world.agents[aid].kind == "arm"]


def _transit_step(base_id: str, marker_id: str) -> GroundedAction:
    action = ActionTemplate(name=f"{TRANSIT_PREFIX}{marker_id}",
                            motion_class=MotionClass.TRANSIT,
                            agent=base_id, area=marker_id)
    return GroundedAction(action, base_id)


# ---------------------------------------------------------------- grounding


def ground(world: World, actions: tuple[ActionTemplate, ...]) -> GroundingResult:
    """Assign agents, fold in base travel, rewrite unreachable transfers."""
    steps: list[GroundedAction] = []
    for action in actions:
        if action.motion_class in (MotionClass.SYMBOLIC, MotionClass.WAIT):
            steps.append(GroundedAction(action, None))
            continue
        if action.motion_class is MotionClass.TRANSIT:
            base_id = action.agent
            if base_id is None:
                bases = [a.id for a in world.agents.values() if a.kind == "base"]
                if not bases:
                    raise GroundingFailed(f"action {action.name}: no base agent")
                base_id = sorted(bases)[0]
            elif base_id not in world.agents or world.agents[base_id].kind != "base":
                raise GroundingFailed(f"action {action.name}: {base_id} is not a base agent")
            if action.area is None:
                raise GroundingFailed(f"action {action.name}: transit without area")
            steps.append(GroundedAction(action, base_id))
            continue
        steps.extend(_ground_manipulation(world, action))
    return GroundingResult(tuple(steps))


def _ground_manipulation(world: World, action: ActionTemplate) -> list[GroundedAction]:
    arms = _arms(world)
    if not arms:
        raise GroundingFailed(f"action {action.name}: no arm agent")
    if action.agent is not None:
        arms = [world.agents[action.agent]]
    points = _needed_points(world, action)

    candidates = [arm for arm in arms
                  if all(reaches(arm, p, _prospective_anchor(world, arm, action))
                         for p in points)]
    if candidates:
        out = []
        chosen = candidates[0]
        if action.area is not None and chosen.mount is not None:
            out.append(_transit_step(chosen.mount, action.area))
        # A put must end up bound to the holder, which may not exist yet
        # when the whole arc is grounded ahead of execution.
        agent_id = None if action.verb == "put" else chosen.id
        out.append(GroundedAction(action, agent_id))
        return out

    if action.verb == "transfer" and len(points) == 2:
        rewrite = _handover_rewrite(world, action, arms, points)
        if rewrite is not None:
            return rewrite
    raise GroundingFailed(
        f"action {action.name}: no agent reaches all required points")


def _handover_rewrite(world: World, action: ActionTemplate, arms: list[Agent],
                      points: list[tuple[float, float]]) -> list[GroundedAction] | None:
    """Split a transfer through a handover marker two arms share."""
    src_point, dst_point = points
    for marker_id in sorted(world.markers):
        marker = world.markers[marker_id]
        if not marker.handover:
            continue
        mpoint = (marker.x, marker.y)
        givers = [a for a in arms if reaches(a, src_point) and reaches(a, mpoint)]
        takers = [a for a in arms if reaches(a, mpoint) and reaches(a, dst_point)]
        for giver in givers:
            for taker in takers:
                if giver.id == taker.id:
                    continue
                give = replace(action, name=action.name + HANDOVER_SUFFIX[0],
                               motion_class=MotionClass.HANDOVER, dest=marker_id,
                               effects_add=frozenset(), effects_del=frozenset())
                take = replace(action, name=action.name + HANDOVER_SUFFIX[1],
                               motion_class=MotionClass.HANDOVER, source=marker_id,
                               preconditions=())
                return [GroundedAction(give, giver.id), GroundedAction(take, taker.id)]
    return None


# ----------------------------------------------------------------- dispatch


def _halton(index: int, base: int) -> float:
    result = 0.0
    f = 1.0
    i = index
    while i > 0:
        f /= base
        result += f * (i % base)
        i //= base
    return result


def goal_candidates(goal: tuple[float, float], region: Box, retries: int,
                    seed: int) -> list[tuple[float, float]]:
    """The declared goal first, then low-discrepancy alternates inside it."""
    points = [goal]
    if region.hw <= 0.0 and region.hh <= 0.0:
        return points
    offset = (seed % 64) + 1
    for i in range(retries):
        u = _halton(offset + i, 2)
        v = _halton(offset + i, 3)
        points.append((region.cx + (2.0 * u - 1.0) * region.hw,
                       region.cy + (2.0 * v - 1.0) * region.hh))
    return points


def _resolve_agent(world: World, grounded: GroundedAction) -> str | None:
    """The agent a step binds to: its own, or for a put, whoever holds the
    object by now. `ground` binds every other geometric step."""
    if grounded.agent_id is not None:
        return grounded.agent_id
    action = grounded.action
    if action.verb == "put" and action.manipulated is not None:
        for agent in world.agents.values():
            if agent.holding == action.manipulated:
                return agent.id
    return None


def _step_goal(world: World, action: ActionTemplate) -> tuple[tuple[float, float], Box]:
    """The declared goal point of a geometric step and the region its
    alternates are drawn from: a marker's snap disc shrunk to a box, or no
    play at all around an object. A transit goes to its area marker, a
    grasp to the object it takes, anything else to its destination."""
    if action.motion_class is MotionClass.TRANSIT:
        dest = action.area
    elif action.verb == "grasp":
        dest = action.manipulated
    else:
        dest = action.dest
    x, y = entity_point(world, dest)
    half = world.markers[dest].snap * 0.7 if dest in world.markers else 0.0
    return (x, y), Box(x, y, half, half)


def _query(world: World, action: ActionTemplate, agent_id: str,
           goal: tuple[float, float]) -> MotionQuery:
    start = world.agents[agent_id].config
    if action.motion_class is MotionClass.TRANSIT:
        return MotionQuery(agent_id, MotionClass.TRANSIT, "transfer", start, goal)
    dest = None if action.verb == "grasp" else action.dest
    return MotionQuery(agent_id, action.motion_class, action.verb, start, goal,
                       manipulated=action.manipulated, dest=dest)


def dispatch(world: World, grounding: GroundingResult, retries: int = 2,
             memo: SearchMemo | None = None) -> DispatchResult:
    """Execute a grounded sequence step by step on the live world.

    A geometric step tries its goal point and then up to `retries`
    alternates; each query searches under `world.DEFAULT_MAX_EXPANSIONS`,
    through `memo` when the caller keeps one (the planner keeps
    one per run), so a search made earlier in its scope is not run again
    and a step's `expansions` still counts its searches' pops.

    A query the world rejects (`InvalidQuery`: a start in collision or
    outside the grid, a put without the object in hand, a support that
    would close a stacking cycle) ends the sequence as an "invalid"
    failure, like any other failed step: its outcome is recorded and
    counts the rejected call as an attempt.
    """
    result = DispatchResult(ok=True, world=world)
    for grounded in grounding.steps:
        action = grounded.action
        state = snapshot(result.world)
        if not applicable(state.facts, action):
            unmet = next(c for c in action.preconditions if not c.holds(state.facts))
            result.ok = False
            result.failure = DispatchFailure("precondition", action.name,
                                             detail=unmet.text())
            return result
        if not action.is_geometric():
            result.world = execute(result.world, "", None, action)
            result.steps.append(StepOutcome(
                action.name, "", action.motion_class, True, 0, 0, 0.0,
                result.world.clock))
            continue

        agent_id = _resolve_agent(result.world, grounded)
        if agent_id is None:
            result.ok = False
            result.failure = DispatchFailure("grounding", action.name,
                                             detail="no agent binds the action")
            return result
        if (action.motion_class is MotionClass.TRANSIT
                and Fact("at", (agent_id, action.area)) in state.facts):
            continue  # already parked, nothing to plan

        goal, region = _step_goal(result.world, action)
        attempts = expansions = 0
        plan_times: list[float] = []
        failure = motion = None
        try:
            for point in goal_candidates(goal, region, retries, result.world.rng_seed):
                attempts += 1
                motion = plan_motion(result.world,
                                     _query(result.world, action, agent_id, point), memo)
                expansions += motion.expansions
                plan_times.append(motion.elapsed)
                if motion.feasible:
                    break
            if motion.feasible:
                result.world = execute(result.world, agent_id, motion, action)
            else:
                failure = DispatchFailure("motion", action.name,
                                          obstructors=motion.obstructors,
                                          detail=motion.detail)
        except InvalidQuery as exc:
            failure = DispatchFailure("invalid", action.name, detail=str(exc))
        result.steps.append(StepOutcome(
            action.name, agent_id, action.motion_class, failure is None, attempts,
            expansions, 0.0 if failure is not None else path_length(motion.path),
            result.world.clock, tuple(plan_times)))
        if failure is not None:
            result.ok = False
            result.failure = failure
            return result
    return result
