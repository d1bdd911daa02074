"""Top-level run loop tying graphs, grounding, and geometry together.

One loop iteration: check the goal, pick a candidate from the newest
graph, ground it, dispatch it. Success re-instantiates the main graph,
whose true leaves are the new state's facts, unless the goal is already
reached. A geometric failure whose obstructors have relocation stages
grows a rearrangement graph instead; anything else suppresses the
candidate for the world before and after the dispatch and tries the next
one. An exhausted frontier re-expands once per distinct state; a repeat
means the task is unsolvable. The network depth cap, at least 1, turns
runaway growth into a reported depth-limit result.

Only a dispatch changes the world, so the loop takes one snapshot per
world state: one at the start and one after each dispatch. Goal checks,
selection and expansion read the latest one. A run keeps one search memo
(`world.SearchMemo`) for all its dispatches, so each distinct grid search
runs once per run and each reach disc and obstacle footprint its grids
are assembled from is rasterized once per run; a new run starts with an
empty one.

Timing discipline: every timestamp in the trace is simulated clock time,
so traces are reproducible byte for byte. Wall-clock durations appear
only under keys ending in `_s` or containing `[s]`, which `mask_timing`
blanks for comparisons.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from enum import Enum

from .domain import MotionClass, is_goal
from .dsl import Scenario
from .interface import GroundingFailed, StepOutcome, dispatch, ground
from .network import DepthLimitExceeded, ExpandReason, ExpansionCycle, GraphNetwork
from .world import SearchMemo, World, snapshot, world_from_scenario

TABLE_COLUMNS = ("Objects", "d", "TP [s]", "Right MP [s]", "Right attempts",
                 "Left MP [s]", "Left attempts")
MODULE_ROWS = ("AND/OR Graph expansion", "Graph Net Search",
               "Motion Planner (right arm)", "Motion Planner (left arm)",
               "Motion Planner (base)")


class FinalStatus(Enum):
    GOAL_ACHIEVED = "goal_achieved"
    UNSOLVABLE = "unsolvable"
    DEPTH_LIMIT = "depth_limit"


@dataclass(frozen=True)
class RunConfig:
    depth_cap: int = 512  # the most graphs the network may hold
    retries: int = 2  # alternate goal points per geometric step
    seed: int = 0


@dataclass
class PlanResult:
    status: FinalStatus
    depth: int
    moves: int
    steps: list[StepOutcome]
    world: World
    trace: list[dict]
    metrics: dict
    network: GraphNetwork | None = None

    def handovers(self) -> int:
        return sum(1 for s in self.steps
                   if s.motion_class is MotionClass.HANDOVER and s.feasible)


class _Timers:
    """The wall time of each network expansion and candidate search."""

    def __init__(self):
        self.expand: list[float] = []
        self.search: list[float] = []

    def timed(self, bucket: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            getattr(self, bucket).append(time.perf_counter() - start)


def run_scenario(scenario: Scenario, config: RunConfig = RunConfig()) -> PlanResult:
    world = world_from_scenario(scenario, seed=config.seed)
    trace: list[dict] = []
    steps: list[StepOutcome] = []
    timers = _Timers()
    memo = SearchMemo()

    known = scenario.entity_ids()
    missing = sorted({arg for fact in scenario.goal for arg in fact.args
                      if arg not in known})
    if missing:
        trace.append({"event": "result", "status": FinalStatus.UNSOLVABLE.value,
                      "d": 0, "moves": 0, "t_sim": 0.0,
                      "detail": "goal names unknown entities: " + ", ".join(missing)})
        return _finish(scenario, FinalStatus.UNSOLVABLE, 0, 0, steps, world,
                       trace, timers, None)

    network = GraphNetwork(scenario.graph, scenario.stages, scenario.actions,
                           depth_cap=config.depth_cap)
    state = snapshot(world)
    timers.timed("expand", network.bootstrap, state.facts)
    trace.append({"event": "expand", "reason": "bootstrap", "graph": network.depth})

    def expand(reason: ExpandReason, obstructors: tuple[str, ...] = ()):
        """Grow the network from the current state; the final status when
        it refuses to grow, else None."""
        try:
            timers.timed("expand", network.expand, reason, state.facts, obstructors)
        except ExpansionCycle:
            return FinalStatus.UNSOLVABLE
        except DepthLimitExceeded:
            return FinalStatus.DEPTH_LIMIT
        event = {"event": "expand", "reason": reason.value, "graph": network.depth}
        if reason is ExpandReason.MOTION_FAILURE:
            event["obstructors"] = list(obstructors)
        trace.append(event)
        return None

    moves = 0
    status: FinalStatus | None = None
    while status is None:
        if is_goal(state.facts, scenario.goal):
            status = FinalStatus.GOAL_ACHIEVED
            break
        candidate = timers.timed("search", network.select, state.facts,
                                 state.signature)
        if candidate is None:
            status = expand(ExpandReason.NO_FEASIBLE_STATE)
            continue
        trace.append({"event": "select", "graph": network.depth,
                      "node": candidate.node_id, "label": candidate.label,
                      "arc": candidate.arc.id,
                      "actions": [a.name for a in candidate.actions]})
        try:
            grounding = ground(world, candidate.actions)
        except GroundingFailed as exc:
            network.suppress(candidate, state.signature)
            trace.append({"event": "suppress", "label": candidate.label,
                          "reason": "grounding", "detail": str(exc)})
            continue

        result = dispatch(world, grounding, config.retries, memo)
        world = result.world
        before, state = state, snapshot(world)
        steps.extend(result.steps)
        for step in result.steps:
            trace.append(_step_event(step))

        if result.ok:
            moves += 1
            trace.append({"event": "execute", "label": candidate.label,
                          "moves": moves})
            if is_goal(state.facts, scenario.goal):
                status = FinalStatus.GOAL_ACHIEVED
            else:
                status = expand(ExpandReason.STAGE_COMPLETE)
            continue

        failure = result.failure
        if failure.kind == "motion" and network.relocation_stages(failure.obstructors):
            status = expand(ExpandReason.MOTION_FAILURE, failure.obstructors)
            continue
        network.suppress(candidate, before.signature)
        network.suppress(candidate, state.signature)
        trace.append({"event": "suppress", "label": candidate.label,
                      "reason": failure.kind, "detail": failure.detail,
                      "obstructors": list(failure.obstructors)})

    depth = network.depth
    trace.append({"event": "result", "status": status.value, "d": depth,
                  "moves": moves, "t_sim": round(world.clock, 9),
                  "poses": {oid: [round(o.x, 9), round(o.y, 9)]
                            for oid, o in sorted(world.objects.items())}})
    return _finish(scenario, status, depth, moves, steps, world, trace, timers,
                   network)


def _step_event(step: StepOutcome) -> dict:
    return {"event": "step", "action": step.action, "agent": step.agent,
            "class": step.motion_class.value, "feasible": step.feasible,
            "attempts": step.attempts, "expansions": step.expansions,
            "path_length": round(step.path_length, 9),
            "t_sim": round(step.sim_time, 9),
            "plan_time_s": step.plan_time}


def _finish(scenario, status, depth, moves, steps, world, trace, timers,
            network):
    metrics = build_metrics(scenario, status, depth, moves, steps, world, timers)
    return PlanResult(status, depth, moves, steps, world, trace, metrics, network)


# ------------------------------------------------------------------ metrics


def _metric_groups(scenario: Scenario) -> dict[str, str]:
    """Agent id -> the group its plan calls report in, read from the
    declared agents: "base" for a base; when two or more arms are
    declared, "left" for the arm of smallest x (ties by id); "right" for
    every other arm, a lone arm included."""
    groups = {aid: "base" for aid, decl in scenario.agents.items() if decl.kind == "base"}
    arms = sorted((decl.x, aid) for aid, decl in scenario.agents.items() if decl.kind == "arm")
    groups.update((aid, "right") for _, aid in arms)
    if len(arms) >= 2:
        groups[arms[0][1]] = "left"
    return groups


def build_metrics(scenario: Scenario, status: FinalStatus, depth: int,
                  moves: int, steps: list[StepOutcome], world: World,
                  timers: _Timers) -> dict:
    attempts: dict[str, int] = {}
    times: dict[str, list[float]] = {"right": [], "left": [], "base": []}
    calls = {"right": 0, "left": 0, "base": 0}
    groups = _metric_groups(scenario)
    for step in steps:
        if step.attempts == 0:
            continue
        attempts[step.agent] = attempts.get(step.agent, 0) + step.attempts
        group = groups.get(step.agent)
        if group is not None:
            times[group].extend(step.plan_times)
            calls[group] += step.attempts

    def row(module: str, samples: list[float], count: int) -> dict:
        """Mean and population std of the per-call samples. `count` can
        exceed the samples by the attempts the world rejected untimed."""
        return {"module": module,
                "avg_s": statistics.fmean(samples) if samples else 0.0,
                "std_s": statistics.pstdev(samples) if samples else 0.0,
                "calls": count}

    table_row = {
        "Objects": sum(1 for o in scenario.objects.values() if o.movable),
        "d": depth,
        "TP [s]": sum(timers.expand) + sum(timers.search),
        "Right MP [s]": sum(times["right"]),
        "Right attempts": calls["right"],
        "Left MP [s]": sum(times["left"]),
        "Left attempts": calls["left"],
    }
    modules = [
        row(MODULE_ROWS[0], timers.expand, len(timers.expand)),
        row(MODULE_ROWS[1], timers.search, len(timers.search)),
        row(MODULE_ROWS[2], times["right"], calls["right"]),
        row(MODULE_ROWS[3], times["left"], calls["left"]),
        row(MODULE_ROWS[4], times["base"], calls["base"]),
    ]
    return {
        "scenario": scenario.name,
        "status": status.value,
        "table": {"columns": list(TABLE_COLUMNS), "rows": [table_row]},
        "modules": modules,
        "attempts": attempts,
        "plan_calls": sum(step.attempts for step in steps),
        "moves": moves,
        "sim_time": round(world.clock, 9),
    }


# ----------------------------------------------------------------- exports


def trace_text(trace: list[dict]) -> str:
    """Trace as JSON lines, keys sorted, one event per line."""
    return "".join(json.dumps(event, sort_keys=True) + "\n" for event in trace)


def metrics_text(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True, indent=2) + "\n"


def mask_timing(value):
    """Blank every wall-clock field: keys containing "[s]" or ending "_s".

    Simulated-clock fields keep their values; two runs of the same
    scenario must agree byte for byte after this masking.
    """
    if isinstance(value, dict):
        return {k: ("<time>" if "[s]" in k or k.endswith("_s") else mask_timing(v))
                for k, v in value.items()}
    if isinstance(value, list):
        return [mask_timing(v) for v in value]
    return value


def masked_trace_text(trace: list[dict]) -> str:
    return "".join(json.dumps(mask_timing(event), sort_keys=True) + "\n"
                   for event in trace)


def masked_metrics_text(metrics: dict) -> str:
    return json.dumps(mask_timing(metrics), sort_keys=True, indent=2) + "\n"
