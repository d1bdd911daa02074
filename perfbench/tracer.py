"""Outside-in layer trace: wrap the planner's public functions where their
callers look them up, record spans and counters, and restore them.

Each patch point names the module or class attribute a caller resolves at
call time, e.g. `taskmotion.network.build_graph` (what `GraphNetwork`
calls) rather than `taskmotion.andor.build_graph`. A span's self time is
its duration minus the time of wrapped spans it caused, so the self times
of one root span add up to its wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from taskmotion import interface, network, planner, world
from taskmotion.interface import GroundingFailed
from taskmotion.network import GraphNetwork

# (owner, attribute, span name); owner is the namespace the caller reads.
PATCH_POINTS = (
    (network, "build_graph", "andor.build_graph"),
    (network, "solved", "andor.pricing"),
    (network, "node_cost", "andor.pricing"),
    (network, "solution_subgraph", "andor.pricing"),
    (network, "augment", "andor.augment"),
    (network, "set_leaf_truth", "andor.set_leaf_truth"),
    (GraphNetwork, "select", "network.select"),
    (GraphNetwork, "frontier", "network.frontier"),
    (GraphNetwork, "expand", "network.expand"),
    (GraphNetwork, "suppress", "network.suppress"),
    (network, "chain_applicable", "domain.chain_applicable"),
    (planner, "is_goal", "domain.is_goal"),
    (interface, "plan_motion", "world.plan_motion"),
    (planner, "snapshot", "world.snapshot"),
    (interface, "snapshot", "world.snapshot"),
    (world, "world_signature", "world.signature"),
    (interface, "execute", "world.execute"),
    (planner, "ground", "interface.ground"),
    (planner, "dispatch", "interface.dispatch"),
)

# Root spans: the harness calls these itself.
PARSE_SPAN = "dsl.parse"
SOLVE_SPAN = "planner.loop"

SPANS = tuple(dict.fromkeys(name for _, _, name in PATCH_POINTS)) + (
    SOLVE_SPAN, PARSE_SPAN)


def _observe(name: str, args: tuple, kwargs: dict, result: Any,
             exc: BaseException | None, duration: float,
             counts: dict[str, float]) -> None:
    """Work counters taken at the boundary of span `name`."""
    if name == "andor.build_graph" and exc is None:
        counts["andor.nodes_built"] += len(result.nodes)
    elif name == "network.frontier" and exc is None:
        counts["network.frontier.candidates"] += len(result)
    elif name == "network.select" and result is not None:
        counts["network.selections"] += 1
    elif name == "network.expand":
        reason = args[1] if len(args) > 1 else kwargs["reason"]
        counts[f"network.expand.{reason.value}"] += 1
    elif name == "world.plan_motion" and exc is None:
        counts["world.astar_pops"] += result.expansions
        if result.feasible:
            counts["world.plan_motion.feasible"] += 1
        else:
            counts["world.plan_motion.infeasible_s"] += duration
    elif name == "interface.ground" and isinstance(exc, GroundingFailed):
        counts["interface.ground.failed"] += 1
    elif name == "interface.dispatch" and exc is None:
        if not result.ok:
            counts["interface.dispatch.failed"] += 1
        for step in result.steps:
            if step.attempts:
                counts["interface.dispatched_steps"] += 1
                counts["interface.attempts"] += step.attempts


@dataclass
class Recording:
    self_s: dict[str, float]
    calls: dict[str, int]
    counts: dict[str, float]


class Tracer:
    """Collects spans; `install()` patches every point, `remove()` puts
    every original back."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # child time of each open span
        self._originals: list[tuple[Any, str, Callable]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run `fn` as span `name`."""
        self._stack.append(0.0)
        start = time.perf_counter()
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as caught:
            exc = caught
            raise
        finally:
            duration = time.perf_counter() - start
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += duration
            self.self_s[name] += duration - child
            self.calls[name] += 1
            _observe(name, args, kwargs, result, exc, duration, self.counts)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in PATCH_POINTS:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def take(self) -> Recording:
        """Return what was recorded since the last take and start afresh."""
        out = Recording(dict(self.self_s), dict(self.calls), dict(self.counts))
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out


ORIGINALS = {(owner, attr): vars(owner)[attr] for owner, attr, _ in PATCH_POINTS}


def leaked_wrappers() -> list[str]:
    """Patch points that do not hold the function they held at import."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), original in ORIGINALS.items()
            if vars(owner)[attr] is not original]

