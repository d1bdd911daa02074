"""Planar top-down geometric world: footprints, motion planning, execution.

Objects live on an axis-aligned plane as circles and boxes. Arms are
modeled by an anchor plus a reach disc their end effector may not leave;
the base is a disc that travels the floor. Motion planning runs A* on a
uniform occupancy grid; when a plan fails, a second search that ignores
movable objects diagnoses which of them stand in the way.

Each search assembles its grid from layers rasterized once per
`SearchMemo` scope: the cell-centre axes of the bounds, an arm's reach
disc, and each obstacle footprint over its bounding box only, each layer
keyed on exactly the inputs it reads. A grid is a copy of the reach disc
(all free for a base) OR-ed with its obstacles' footprint patches, kept as
a byte mask padded by one ring of blocked cells. The diagnosis reads its
movables' footprint patches from the same layers. A* walks flat indices
into that mask, whose order equals (x, y) order. Among cells of equal f
it pops the deeper one (higher g) first, then the one first in (x, y)
order, so paths are those of A* on coordinate tuples under that rule;
obstructor order depends on them.

A* itself runs once per distinct search in a `SearchMemo`'s scope. The
memo maps everything `_astar` reads but the one budget (the mask, its
stride, the start and goal cells) to the cell path, kept as a tuple, and
the pop count. The planner keeps one memo per run; a `plan_motion` call
without one gets a fresh memo of its own. A result's `expansions` is the
pop count of the search that produced it, whether that search ran now or
earlier in the memo's scope.

An unreachable goal is proved, not searched out. A search still short
of its goal after `PROOF_CHECKPOINT` pops labels the free cells once, by
runs along each column; when the goal lies outside the start's
8-connected component it stops. Its pop count (`expansions`) still
means the pops an exhaustive A* would make: the component size, capped
by the budget.

A `MotionQuery` names an agent, its start and one goal point; every
search, a leg's or the diagnosis', runs under the one planning budget,
`DEFAULT_MAX_EXPANSIONS`.

Stacking never forms a cycle: `execute` refuses a support that rests on
the object being placed.

Worlds are immutable values: a `World` is frozen and its `objects`,
`agents` and `markers` maps are read-only, so `execute` returns a new
world and a changed world is always a new one (`dataclasses.replace`).
A world shares no mutable state with another. Each world derives its
symbolic snapshot once, on first read, and keeps it: `snapshot` and
`world_signature` return that one read-only `WorldState`. Reads
(`snapshot`, `plan_motion`) are pure, apart from filling the search
memo, and safe to repeat; replaying the same query on the same world
yields a bit-identical result apart from the wall-clock `elapsed`
field, with any memo or none.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .domain import DERIVED_PREDICATES, ActionTemplate, Fact, MotionClass

DEFAULT_RESOLUTION = 0.02
# Largest occupancy grid a scenario may ask for: about 20 m x 20 m at the
# default resolution. Each search over a grid this size holds a few MB of
# rasters.
MAX_GRID_CELLS = 1_000_000
DEFAULT_CLEARANCE = 0.01
DEFAULT_SNAP = 0.04  # a marker's snap radius when its declaration names none
DEFAULT_MAX_EXPANSIONS = 50_000
# A* pops after which a search still short of its goal checks whether the
# goal is reachable at all. On the benchmark grids labeling the free cells
# takes about 47 us, as long as 16 pops, so a search that gets this far
# has spent eight times that. Deeper-first ties leave more stale heap
# entries while a search floods a dead end: its first 512 pops take about
# 1.5 times as long as under lower-g-first ties, its first 128 no longer.
PROOF_CHECKPOINT = 128
ARM_POINT_RADIUS = 0.02
MOVE_SPEED = 1.0  # meters of path per simulated second


class WorldError(Exception):
    pass


class InvalidQuery(WorldError):
    """Start configuration in collision or outside the agent's region."""


class StaleResult(WorldError):
    """World changed between planning and execution."""


class UnknownEntity(WorldError):
    pass


@dataclass(frozen=True)
class Obj:
    id: str
    shape: str  # "circle" | "box"
    dims: tuple[float, ...]  # (r,) or (w, h)
    x: float
    y: float
    yaw: float = 0.0
    movable: bool = False
    blocks: str = "all"  # "all" | "arm" | "base"
    stack_on: str | None = None

    @cached_property
    def signature_text(self) -> str:
        """This object's pose in the world signature, made on first read."""
        return f"{self.id}:{round(self.x, 9)}:{round(self.y, 9)}:{round(self.yaw, 9)};"

    def carry_extent(self) -> float:
        """Swept radius while carried. A planar carry can swing a box to
        slip through gaps, so the tight half extent governs, not the
        diagonal; clearance still pads every obstacle test."""
        if self.shape == "circle":
            return self.dims[0]
        return min(self.dims[0], self.dims[1]) / 2.0


@dataclass(frozen=True)
class Marker:
    id: str
    x: float
    y: float
    snap: float = DEFAULT_SNAP
    handover: bool = False


@dataclass(frozen=True)
class Agent:
    id: str
    kind: str  # "arm" | "base"
    anchor: tuple[float, float]
    reach: float = 0.0
    radius: float = 0.0
    config: tuple[float, float] = (0.0, 0.0)
    holding: str | None = None
    mount: str | None = None
    mount_off: tuple[float, float] = (0.0, 0.0)

    @cached_property
    def signature_text(self) -> str:
        """This agent's config in the world signature, made on first read."""
        return f"{self.id}@{round(self.config[0], 9)}:{round(self.config[1], 9)};"


def _read_only(mapping: Mapping) -> MappingProxyType:
    """A read-only view of a private copy; a view is kept as it is, so
    views never nest when a world hands its maps to the next one."""
    if isinstance(mapping, MappingProxyType):
        return mapping
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True)
class WorldState:
    """Read-only snapshot: the derived and stored facts, and the signature
    of the facts and the geometry. Poses, holdings, configs and the clock
    are read from the `World` itself."""

    facts: frozenset[Fact]
    signature: str


@dataclass(frozen=True)
class World:
    """One immutable world state. The maps are read-only views, so the
    snapshot cached by `state` can never go stale."""

    bounds: tuple[float, float, float, float]
    objects: Mapping[str, Obj] = field(default_factory=dict)
    agents: Mapping[str, Agent] = field(default_factory=dict)
    markers: Mapping[str, Marker] = field(default_factory=dict)
    facts: frozenset[Fact] = frozenset()
    clock: float = 0.0
    rng_seed: int = 0
    resolution: float = DEFAULT_RESOLUTION

    def __post_init__(self):
        for name in ("objects", "agents", "markers"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @cached_property
    def state(self) -> WorldState:
        """The symbolic view of this world, derived on first read."""
        return _derive_state(self)


@dataclass(frozen=True)
class MotionQuery:
    agent: str
    motion_class: MotionClass
    verb: str
    start: tuple[float, float]
    goal_point: tuple[float, float]
    manipulated: str | None = None
    dest: str | None = None


@dataclass(frozen=True)
class MotionResult:
    feasible: bool
    path: tuple[tuple[float, float], ...]
    expansions: int
    obstructors: tuple[str, ...]
    goal_point: tuple[float, float]
    world_sig: str
    detail: str = ""
    elapsed: float = 0.0


def world_from_scenario(scenario, seed: int = 0) -> World:
    """Materialize the initial world from scenario declarations."""
    objects = {}
    for decl in scenario.objects.values():
        objects[decl.id] = Obj(decl.id, decl.shape, tuple(decl.dims), decl.x, decl.y,
                               decl.yaw, decl.movable, decl.blocks, decl.on)
    markers = {m.id: Marker(m.id, m.x, m.y, m.snap, m.handover)
               for m in scenario.markers.values()}
    agents = {}
    for decl in scenario.agents.values():
        anchor = (decl.x, decl.y)
        if decl.mount is not None:
            base = scenario.agents[decl.mount]
            anchor = (base.x + decl.mount_dx, base.y + decl.mount_dy)
        agents[decl.id] = Agent(decl.id, decl.kind, anchor, decl.reach, decl.radius,
                                config=anchor, mount=decl.mount,
                                mount_off=(decl.mount_dx, decl.mount_dy))
    return World(bounds=scenario.bounds, objects=objects, agents=agents, markers=markers,
                 facts=frozenset(scenario.init), rng_seed=seed)


def stack_chain_down(world: World, obj_id: str) -> list[str]:
    """Everything the object transitively rests on, nearest support first.

    Stops at an id it has already seen, so a stacking cycle cannot hang
    the walk.
    """
    chain = []
    seen = {obj_id}
    current = world.objects[obj_id].stack_on
    while current is not None and current in world.objects and current not in seen:
        chain.append(current)
        seen.add(current)
        current = world.objects[current].stack_on
    return chain


def _supported(world: World) -> dict[str, list[str]]:
    """Support id -> the ids resting directly on it, in id order."""
    children: dict[str, list[str]] = {}
    for oid in sorted(world.objects):
        support = world.objects[oid].stack_on
        if support is not None:
            children.setdefault(support, []).append(oid)
    return children


def stack_chain_up(world: World, obj_id: str) -> list[str]:
    """Everything resting on the object, lowest first (breadth-first,
    siblings in id order). Skips an id it has already seen, so a stacking
    cycle cannot hang the walk."""
    children = _supported(world)
    walk = [obj_id]
    seen = {obj_id}
    for oid in walk:  # the list grows while it is walked: breadth-first
        for child in children.get(oid, ()):
            if child not in seen:
                seen.add(child)
                walk.append(child)
    return walk[1:]


def stack_top(world: World, obj_id: str) -> str:
    """Topmost object of the stack rooted at obj_id (itself when bare),
    following the smallest id where several objects share a support.
    Stops before an id it has already seen, as `stack_chain_down` does."""
    children = _supported(world)
    top = obj_id
    seen = {top}
    while top in children and children[top][0] not in seen:
        top = children[top][0]
        seen.add(top)
    return top


def entity_point(world: World, entity_id: str) -> tuple[float, float]:
    """Where an object or a marker stands; ids are unique across both."""
    entity = (world.markers[entity_id] if entity_id in world.markers
              else world.objects[entity_id])
    return (entity.x, entity.y)


def reaches(agent: Agent, point: tuple[float, float],
            anchor: tuple[float, float] | None = None) -> bool:
    """Whether the point lies in the agent's reach disc, centred on its
    anchor or on `anchor` when given."""
    ax, ay = anchor if anchor is not None else agent.anchor
    return math.hypot(point[0] - ax, point[1] - ay) <= agent.reach + 1e-9


def held_by(world: World) -> dict[str, str]:
    return {a.holding: a.id for a in world.agents.values() if a.holding is not None}


def snapshot(world: World) -> WorldState:
    """The symbolic view of the world's geometry, derived once per world."""
    return world.state


def world_signature(world: World) -> str:
    return world.state.signature


def _derive_state(world: World) -> WorldState:
    """Derive the symbolic view of the current geometry.

    `on`/`clear` follow the stacking relation, `at` compares poses with
    marker snap radii, `at_peg` names the root support of a stack, and
    `holding`/`held`/`carrying` reflect attachment. Stored facts (the
    non-derivable ones such as process flags) are unioned in.
    """
    facts: set[Fact] = set()
    holders = held_by(world)
    supports = _supported(world)
    for oid in sorted(world.objects):
        obj = world.objects[oid]
        if obj.stack_on is not None:
            facts.add(Fact("on", (oid, obj.stack_on)))
            chain = stack_chain_down(world, oid)
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
    return WorldState(frozenset(facts), _signature(world, facts))


def _signature(world: World, facts: Iterable[Fact]) -> str:
    """sha256 of one text: each object's pose and each agent's config in
    id order, then each fact followed by "|", in the order of `Fact`'s
    generated `__lt__`, sorted here at a fraction of its cost."""
    parts = [world.objects[oid].signature_text for oid in sorted(world.objects)]
    parts += [world.agents[aid].signature_text for aid in sorted(world.agents)]
    parts += [f"{fact.text()}|" for fact in sorted(facts, key=attrgetter("predicate", "args"))]
    return hashlib.sha256("".join(parts).encode()).hexdigest()


# ---------------------------------------------------------------- planning


@dataclass(frozen=True)
class _Leg:
    start: tuple[float, float]
    goal: tuple[float, float]
    carry: str | None  # object carried along this leg


def _legs_for(world: World, q: MotionQuery) -> list[_Leg]:
    if q.motion_class is MotionClass.TRANSIT:
        return [_Leg(q.start, q.goal_point, None)]
    if q.verb == "grasp":
        return [_Leg(q.start, entity_point(world, q.manipulated), None)]
    if q.verb == "put":
        return [_Leg(q.start, q.goal_point, q.manipulated)]
    grasp = entity_point(world, q.manipulated)
    return [_Leg(q.start, grasp, None), _Leg(grasp, q.goal_point, q.manipulated)]


def _obstacles_for(world: World, agent: Agent, exclude: set[str],
                   ghost: bool) -> list[Obj]:
    """Objects the moving body must avoid.

    Held objects travel with their arm and never count; for the base only
    floor-level (unstacked) objects matter; `ghost` drops every movable
    for the obstruction diagnosis.
    """
    holders = held_by(world)
    out = []
    for oid in sorted(world.objects):
        obj = world.objects[oid]
        if oid in exclude or oid in holders:
            continue
        if ghost and obj.movable:
            continue
        if agent.kind == "base":
            if obj.blocks not in ("all", "base") or obj.stack_on is not None:
                continue
        else:
            if obj.blocks not in ("all", "arm"):
                continue
        out.append(obj)
    return out


def _body_radius(world: World, agent: Agent, carry: str | None) -> float:
    if agent.kind == "base":
        return agent.radius
    radius = ARM_POINT_RADIUS
    if carry is not None:
        radius += world.objects[carry].carry_extent()
    return radius


@dataclass
class SearchMemo:
    """What the searches of one scope share; the planner keeps one per run.

    `searches` maps (free mask, stride, start cell, goal cell) to (cell
    path | None, pops). `rasters` holds the layers grids are assembled
    from, each made once and kept read-only: a grid's cell-centre axes
    under its geometry (bounds, resolution), an arm's reach disc under
    (geometry, anchor, reach), and an obstacle's footprint patch under
    (geometry, shape, dims, x, y, inflation), exactly the inputs each one
    reads.
    """

    searches: dict[tuple[bytes, int, tuple[int, int], tuple[int, int]],
                   tuple[tuple[tuple[int, int], ...] | None, int]] = field(default_factory=dict)
    rasters: dict[tuple, object] = field(default_factory=dict)


def grid_shape(bounds: tuple[float, float, float, float], resolution: float
               ) -> tuple[int, int, int, int]:
    """(ix0, iy0, nx, ny) of the grid over `bounds`: the integer index of
    its first cell centre along x and y, and its cell counts. Cell (x, y)
    is centred on ((x + ix0) * resolution, (y + iy0) * resolution)."""
    x0, y0, x1, y1 = bounds
    ix0 = math.ceil(round(x0 / resolution, 9))
    iy0 = math.ceil(round(y0 / resolution, 9))
    ix1 = math.floor(round(x1 / resolution, 9))
    iy1 = math.floor(round(y1 / resolution, 9))
    return ix0, iy0, max(ix1 - ix0 + 1, 0), max(iy1 - iy0 + 1, 0)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _layer(rasters: dict, key: tuple, make):
    """The layer kept under `key`, made by `make()` on first use."""
    try:
        return rasters[key]
    except KeyError:
        layer = rasters[key] = make()
        return layer


def _axes(bounds: tuple[float, float, float, float], res: float):
    """(ix0, iy0, xs, ys): a column and a row vector that broadcast to the
    cell-centre coordinates; every raster test compares exactly these
    float values."""
    ix0, iy0, nx, ny = grid_shape(bounds, res)
    xs = ((np.arange(nx) + ix0) * res)[:, None]
    ys = ((np.arange(ny) + iy0) * res)[None, :]
    return ix0, iy0, _frozen(xs), _frozen(ys)


def _span(lo: float, hi: float, res: float, i0: int, n: int) -> tuple[int, int]:
    """Index range [a, b) of the cells within one cell of [lo, hi]."""
    a = math.floor(lo / res) - i0 - 1
    b = math.ceil(hi / res) - i0 + 2
    return max(a, 0), min(b, n)


def _footprint(obj: Obj, inflation: float, res: float, axes):
    """The cells the object's footprint, grown by `inflation`, blocks:
    (xa, xb, ya, yb, hit), where `hit` covers cells [xa, xb) x [ya, yb),
    or None when the footprint misses the grid."""
    ix0, iy0, xs, ys = axes
    if obj.shape == "circle":
        r = obj.dims[0] + inflation
        hw = hh = r
    else:
        hw = obj.dims[0] / 2.0 + inflation
        hh = obj.dims[1] / 2.0 + inflation
    # Bounding box plus one cell, so rounding in the index bounds can never
    # leave out a cell the footprint test would block.
    xa, xb = _span(obj.x - hw, obj.x + hw, res, ix0, xs.shape[0])
    ya, yb = _span(obj.y - hh, obj.y + hh, res, iy0, ys.shape[1])
    if xa >= xb or ya >= yb:
        return None
    bx = xs[xa:xb]
    by = ys[:, ya:yb]
    if obj.shape == "circle":
        hit = (bx - obj.x) ** 2 + (by - obj.y) ** 2 <= r * r
    else:
        hit = (np.abs(bx - obj.x) <= hw) & (np.abs(by - obj.y) <= hh)
    return xa, xb, ya, yb, _frozen(hit)


class _Grid:
    """Occupancy raster over the agent's admissible region.

    `blocked` is the (nx, ny) raster: the arm's reach disc (none for a
    base) OR-ed with each obstacle's footprint, all taken from the layers
    in `rasters` (a `SearchMemo.rasters`; a fresh map when None), where
    `footprint` looks up the patch of any object. `free_mask`
    is the same raster inverted and padded by one ring of blocked cells,
    flattened to bytes: cell (x, y) is free when
    `free_mask[(x + 1) * stride + y + 1]` is non-zero, with
    `stride = ny + 2`, so a neighbour step never needs a range test.
    """

    def __init__(self, world: World, agent: Agent, obstacles: list[Obj], inflation: float,
                 rasters: dict | None = None):
        if rasters is None:
            rasters = {}
        res = world.resolution
        self.rasters = rasters
        self.geometry = geometry = (world.bounds, res)
        self.axes = axes = _layer(rasters, geometry, lambda: _axes(world.bounds, res))
        self.res = res
        self.ix0, self.iy0, xs, ys = axes
        self.nx, self.ny = xs.shape[0], ys.shape[1]
        self.stride = self.ny + 2
        if agent.kind == "arm":  # the cells outside the arm's reach disc
            (ax, ay), reach = agent.anchor, agent.reach
            blocked = _layer(rasters, (geometry, agent.anchor, reach), lambda: _frozen(
                (xs - ax) ** 2 + (ys - ay) ** 2 > reach ** 2)).copy()
        else:
            blocked = np.zeros((self.nx, self.ny), dtype=bool)
        for obj in obstacles:
            patch = self.footprint(obj, inflation)
            if patch is not None:
                xa, xb, ya, yb, hit = patch
                blocked[xa:xb, ya:yb] |= hit
        self.blocked = blocked
        padded = np.zeros((self.nx + 2, self.stride), dtype=bool)
        np.logical_not(blocked, out=padded[1:-1, 1:-1])
        self.free_mask = padded.tobytes()

    def footprint(self, obj: Obj, inflation: float):
        """The object's footprint patch over this grid (see `_footprint`),
        taken from the layers or made and kept there on first use."""
        return _layer(self.rasters, (self.geometry, obj.shape, obj.dims, obj.x, obj.y, inflation),
                      lambda: _footprint(obj, inflation, self.res, self.axes))

    def cell(self, point: tuple[float, float]) -> tuple[int, int]:
        return (round(point[0] / self.res) - self.ix0,
                round(point[1] / self.res) - self.iy0)

    def in_range(self, c: tuple[int, int]) -> bool:
        return 0 <= c[0] < self.nx and 0 <= c[1] < self.ny

    def free(self, c: tuple[int, int]) -> bool:
        return self.in_range(c) and self.free_mask[(c[0] + 1) * self.stride + c[1] + 1] != 0

    def center(self, c: tuple[int, int]) -> tuple[float, float]:
        return ((c[0] + self.ix0) * self.res, (c[1] + self.iy0) * self.res)


def _steps(stride: int) -> tuple[tuple[int, int], ...]:
    """The eight neighbour offsets of a flat cell index, each with its cost."""
    return ((stride, 5), (stride + 1, 7), (1, 5), (1 - stride, 7),
            (-stride, 5), (-stride - 1, 7), (-1, 5), (stride - 1, 7))


def _astar(grid: _Grid, start: tuple[int, int], goal: tuple[int, int],
           budget: int) -> tuple[list[tuple[int, int]] | None, int]:
    """Deterministic 8-connected A*; integer costs 5/7 avoid float ties.

    Both cells must lie inside the grid. The search runs on flat indices
    into `grid.free_mask`. Heap entries are (f, -g, cell): among equal f
    the deeper cell pops first, so on open floor the search follows one
    optimal path instead of popping the band of them; then the smaller
    index, and since `0 <= y + 1 < stride` index order is (x, y) order.

    Returns the cell path, or None, with the pop count. A search that
    pops its `PROOF_CHECKPOINT`-th cell short of the goal asks
    `_unreached_pops` whether the goal lies in the start's free
    component. If it does not, the search stops there and reports
    min(component size, budget): the pops an exhaustive A* would make,
    since it pops each reachable cell once and never the goal.
    Otherwise the same search goes on. Either way the path and the pop
    count are those of A* run to the end.
    """
    stride = grid.stride
    source = (start[0] + 1) * stride + start[1] + 1
    target = (goal[0] + 1) * stride + goal[1] + 1
    gx, gy = divmod(target, stride)
    neighbors = _steps(stride)
    # Open to expansion: free and not yet closed. The start is popped
    # first, so it needs no free test of its own.
    open_cell = bytearray(grid.free_mask)
    open_cell[source] = 1
    dx, dy = abs(source // stride - gx), abs(source % stride - gy)
    open_heap = [(5 * (dx + dy) - 3 * min(dx, dy), 0, source)]
    g_score = {source: 0}
    came: dict[int, int] = {}
    heappop, heappush = heapq.heappop, heapq.heappush
    pops = 0
    checkpoint = PROOF_CHECKPOINT
    while open_heap and pops < budget:
        f, minus_g, cell = heappop(open_heap)
        if not open_cell[cell]:
            continue
        open_cell[cell] = 0
        pops += 1
        if cell == target:
            path = [cell]
            while cell in came:
                cell = came[cell]
                path.append(cell)
            path.reverse()
            return [(c // stride - 1, c % stride - 1) for c in path], pops
        if pops == checkpoint:
            unreached = _unreached_pops(grid.free_mask, stride, source, target)
            if unreached is not None:
                return None, min(unreached, budget)
        for offset, step in neighbors:
            nxt = cell + offset
            if not open_cell[nxt]:
                continue
            tentative = step - minus_g
            if tentative < g_score.get(nxt, 1 << 60):
                g_score[nxt] = tentative
                came[nxt] = cell
                x, y = divmod(nxt, stride)
                dx = x - gx if x > gx else gx - x
                dy = y - gy if y > gy else gy - y
                heappush(open_heap, (tentative + 5 * (dx + dy) - 3 * (dx if dx < dy else dy),
                                     -tentative, nxt))
    return None, pops


def _search(memo: SearchMemo, grid: _Grid, start: tuple[int, int], goal: tuple[int, int]
            ) -> tuple[tuple[tuple[int, int], ...] | None, int]:
    """`_astar` under the one budget, run only when the memo holds no
    search with the same inputs; the key keeps the mask's bytes, not the grid."""
    key = (grid.free_mask, grid.stride, start, goal)
    found = memo.searches.get(key)
    if found is None:
        cells, pops = _astar(grid, start, goal, DEFAULT_MAX_EXPANSIONS)
        found = memo.searches[key] = (None if cells is None else tuple(cells), pops)
    return found


def _unreached_pops(free_mask: bytes, stride: int, source: int, target: int) -> int | None:
    """The cells A* from `source` can reach, counted, when `target` is not
    one of them; None when it is.

    Labels free cells by runs: the maximal stretches of free cells along
    y, which the padding ring ends at their column. A run links to each
    run of the next column whose y range overlaps it or touches it
    diagonally, which is exactly 8-connectivity; linked runs are joined
    in a union-find. A blocked `source` is still popped once, and reaches
    the components of its free neighbours.
    """
    free = np.frombuffer(free_mask, dtype=bool)
    edges = np.flatnonzero(free[1:] != free[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]  # flat [start, end) of each run
    # Run j lies in the next column and touches run i when, with i moved one
    # column on, j starts by one past i's last cell (start_j <= end_i +
    # stride) and ends by one before i's first (end_j >= start_i + stride).
    # Runs are sorted and disjoint, so those j form the range first:last.
    first = np.searchsorted(ends, starts + stride, side="left").tolist()
    last = np.searchsorted(starts, ends + stride, side="right").tolist()
    starts, ends = starts.tolist(), ends.tolist()
    parent = list(range(len(starts)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(parent)):
        for j in range(first[i], last[i]):
            a, b = root(i), root(j)
            if a != b:
                parent[b] = a

    def run_of(cell: int) -> int | None:
        i = bisect.bisect_right(starts, cell) - 1
        return i if i >= 0 and cell < ends[i] else None

    home = run_of(source)
    if home is not None:
        seeds, pops = [home], 0
    else:
        seeds = [run_of(source + offset) for offset, _ in _steps(stride)]
        pops = 1
    reached = {root(i) for i in seeds if i is not None}
    goal_run = run_of(target)
    if goal_run is not None and root(goal_run) in reached:
        return None
    return pops + sum(ends[i] - starts[i] for i in range(len(parent)) if root(i) in reached)


def plan_motion(world: World, q: MotionQuery, memo: SearchMemo | None = None) -> MotionResult:
    """Plan one query; transfers plan both legs before reporting success.
    Each leg searches under the whole budget, so a leg that repeats an
    earlier search finds it in the memo.

    Infeasible results carry the obstruction diagnosis: movable objects
    crossing the path a movable-free world would allow, in path order.
    An empty list means not even that world admits a path (out of reach
    or statically sealed).

    Every grid search, the legs' and the diagnosis', goes through `memo`,
    so a search the memo's scope already ran is looked up, not run again;
    without a memo the call gets a fresh one. The result is the same
    either way, `expansions` included: it counts the pops of the searches
    that produced the result, whenever they ran.
    """
    t0 = time.perf_counter()
    if memo is None:
        memo = SearchMemo()
    sig = world_signature(world)
    agent = world.agents.get(q.agent)
    if agent is None:
        raise UnknownEntity(f"agent {q.agent!r} not in world")

    def done(feasible, path, expansions, obstructors, detail):
        return MotionResult(feasible, tuple(path), expansions, tuple(obstructors),
                            q.goal_point, sig, detail, time.perf_counter() - t0)

    if agent.kind == "arm":
        if not reaches(agent, q.goal_point):
            return done(False, (), 0, (), "goal out of reach")
        if q.manipulated is not None and q.verb in ("grasp", "transfer"):
            if not reaches(agent, entity_point(world, q.manipulated)):
                return done(False, (), 0, (), "manipulated object out of reach")
            above = stack_chain_up(world, q.manipulated)
            if above:
                return done(False, (), 0, tuple(reversed(above)),
                            "manipulated object is not stack-top")

    total_expansions = 0
    full_path: list[tuple[float, float]] = []
    for index, leg in enumerate(_legs_for(world, q)):
        path, expansions, obstructors, detail = _plan_leg(world, agent, q, leg, memo)
        total_expansions += expansions
        if path is None:
            return done(False, (), total_expansions, obstructors, f"leg {index}: {detail}")
        if full_path:
            full_path.extend(path[1:])
        else:
            full_path.extend(path)
    return done(True, full_path, total_expansions, (), "")


def _covers(obj: Obj, point: tuple[float, float], inflation: float) -> bool:
    """Whether the object's footprint, grown by `inflation`, contains the point."""
    dx, dy = point[0] - obj.x, point[1] - obj.y
    if obj.shape == "circle":
        return math.hypot(dx, dy) <= obj.dims[0] + inflation
    return (abs(dx) <= obj.dims[0] / 2.0 + inflation
            and abs(dy) <= obj.dims[1] / 2.0 + inflation)


def _engaged(world: World, point: tuple[float, float], inflation: float) -> set[str]:
    """Objects whose inflated footprint already contains the point."""
    return {oid for oid, obj in world.objects.items() if _covers(obj, point, inflation)}


def _plan_leg(world: World, agent: Agent, q: MotionQuery, leg: _Leg, memo: SearchMemo):
    """One grid search; returns (path | None, expansions, obstructors, detail)."""
    inflation = DEFAULT_CLEARANCE + _body_radius(world, agent, leg.carry)
    exclude: set[str] = set()
    if q.manipulated is not None:
        exclude.add(q.manipulated)
        exclude.update(stack_chain_down(world, q.manipulated))
    if q.dest is not None and q.dest in world.objects:
        exclude.add(q.dest)
        exclude.update(stack_chain_up(world, q.dest))
    # Engagement tolerance: bodies begin flush against whatever they just
    # touched; those footprints cannot invalidate the start.
    exclude.update(_engaged(world, leg.start, inflation))

    obstacles = _obstacles_for(world, agent, exclude, ghost=False)
    grid = _Grid(world, agent, obstacles, inflation, memo.rasters)
    start_cell = grid.cell(leg.start)
    goal_cell = grid.cell(leg.goal)
    if not grid.in_range(start_cell) or not grid.free(start_cell):
        raise InvalidQuery(
            f"agent {agent.id}: start {leg.start} in collision or outside region")
    if not grid.free(goal_cell):
        obstructors = _diagnose(world, agent, leg, exclude, inflation, memo)
        return None, 0, obstructors, "goal cell blocked"
    cells, expansions = _search(memo, grid, start_cell, goal_cell)
    if cells is None:
        obstructors = _diagnose(world, agent, leg, exclude, inflation, memo)
        return None, expansions, obstructors, "no path within budget"
    points = [grid.center(c) for c in cells]
    points[0] = leg.start
    points[-1] = leg.goal
    return points, expansions, (), ""


def _diagnose(world: World, agent: Agent, leg: _Leg, exclude: set[str], inflation: float,
              memo: SearchMemo) -> tuple[str, ...]:
    """The movables that block the path a world without them allows, in
    path order: each one's first path cell its footprint patch covers."""
    ghost_obstacles = _obstacles_for(world, agent, exclude, ghost=True)
    grid = _Grid(world, agent, ghost_obstacles, inflation, memo.rasters)
    start_cell = grid.cell(leg.start)
    goal_cell = grid.cell(leg.goal)
    if not grid.free(start_cell) or not grid.free(goal_cell):
        return ()
    cells, _ = _search(memo, grid, start_cell, goal_cell)
    if cells is None:
        return ()
    holders = held_by(world)
    movables = [obj for oid, obj in sorted(world.objects.items())
                if obj.movable and oid not in exclude and oid not in holders]
    px, py = np.array(cells).T
    first_hit: dict[str, int] = {}
    for obj in movables:
        patch = grid.footprint(obj, inflation)
        if patch is None:
            continue
        xa, xb, ya, yb, hit = patch
        inside = np.flatnonzero((px >= xa) & (px < xb) & (py >= ya) & (py < yb))
        hits = inside[hit[px[inside] - xa, py[inside] - ya]]
        if hits.size:
            first_hit[obj.id] = int(hits[0])
    return tuple(sorted(first_hit, key=lambda oid: (first_hit[oid], oid)))


# ---------------------------------------------------------------- execution


def _resolve_support(world: World, dest: str | None, manipulated: str) -> str | None:
    """The object `manipulated` will rest on: the top of dest's stack.

    Raises InvalidQuery when that would close a stacking cycle, i.e. the
    support is the object itself or rests on it.
    """
    if dest is None or dest not in world.objects:
        return None
    support = stack_top(world, dest)
    if support == manipulated or manipulated in stack_chain_down(world, support):
        raise InvalidQuery(f"putting {manipulated} on {support} would close a stacking cycle")
    return support


def execute(world: World, agent_id: str, result: MotionResult,
            action: ActionTemplate) -> World:
    """Apply a planned motion (or a symbolic action) to a copy of the world.

    Raises StaleResult when the world signature no longer matches the one
    the plan was computed against. Never creates or destroys objects.
    """
    if result is not None and result.world_sig != world_signature(world):
        raise StaleResult(f"world moved since planning {action.name}")
    objects = dict(world.objects)
    agents = dict(world.agents)
    facts = set(world.facts)
    clock = world.clock

    if action.motion_class in (MotionClass.SYMBOLIC, MotionClass.WAIT):
        clock += action.duration
    else:
        agent = agents[agent_id]
        path_len = path_length(result.path)
        clock += path_len / MOVE_SPEED
        end = result.path[-1] if result.path else agent.config
        if action.motion_class is MotionClass.TRANSIT:
            delta = (end[0] - agent.config[0], end[1] - agent.config[1])
            agents[agent_id] = replace(agent, anchor=end, config=end)
            for aid, other in list(agents.items()):
                if other.mount == agent_id:
                    # Arms stow over their mount point while the base
                    # drives, so every later leg starts from the mount.
                    new_anchor = (other.anchor[0] + delta[0], other.anchor[1] + delta[1])
                    agents[aid] = replace(other, anchor=new_anchor, config=new_anchor)
                    if other.holding is not None:
                        held = objects[other.holding]
                        objects[other.holding] = replace(
                            held, x=new_anchor[0], y=new_anchor[1])
        elif action.verb == "grasp":
            obj = objects[action.manipulated]
            agents[agent_id] = replace(agent, config=end, holding=action.manipulated)
            objects[action.manipulated] = replace(obj, x=end[0], y=end[1], stack_on=None)
        else:  # put, or fused transfer
            if action.verb == "put" and agent.holding != action.manipulated:
                raise InvalidQuery(
                    f"agent {agent_id} does not hold {action.manipulated}")
            support = _resolve_support(world, action.dest, action.manipulated)
            obj = objects[action.manipulated]
            goal = result.goal_point
            agents[agent_id] = replace(agent, config=end, holding=None)
            objects[action.manipulated] = replace(obj, x=goal[0], y=goal[1],
                                                  stack_on=support)

    for fact in action.effects_del:
        if fact.predicate not in DERIVED_PREDICATES:
            facts.discard(fact)
    for fact in action.effects_add:
        if fact.predicate not in DERIVED_PREDICATES:
            facts.add(fact)

    return replace(world, objects=objects, agents=agents, facts=frozenset(facts),
                   clock=clock)


def path_length(path: tuple[tuple[float, float], ...]) -> float:
    """Euclidean length of a polyline."""
    total = 0.0
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        total += math.hypot(x1 - x0, y1 - y0)
    return total
