"""Planar top-down geometric world: footprints, motion planning, execution.

Objects live on an axis-aligned plane as circles and boxes. Arms are
modeled by an anchor plus a reach disc their end effector may not leave;
the base is a disc that travels the floor, and an arm mounted on it is
anchored at its point plus the arm's offset, wherever it is placed, by
one rule (`mount_anchor`). Motion planning runs A* on a
uniform occupancy grid; when a leg fails, a second search around only
the fixed objects of the leg's obstacle list diagnoses which of the
list's movables stand in the way.

Each grid is one free mask, assembled in one step (`_free_mask`) once
per `SearchMemo` scope: the reach disc (all free for a base) OR-ed with
the footprint patches of the grid's obstacles `_changing` keeps, padded
by one ring of blocked cells, inverted and kept as bytes. What it reads
is rasterized once per scope too: the cell-centre axes of the bounds, an
arm's reach disc and each obstacle footprint over its bounding box only,
each keyed on exactly the inputs it reads. The diagnosis' ghost grid is
an ordinary grid of the leg's fixed obstacles, and reads its movables'
footprint patches from the same cache. A* walks flat indices into the
mask, whose order equals (x, y) order. Among cells of equal f it pops
the deeper one (higher g) first, then the one first in (x, y) order, so
paths are those of A* on coordinate tuples under that rule; obstructor
order depends on them.

A* itself runs once per distinct search in a `SearchMemo`'s scope. The
memo maps everything `_astar` reads but the one budget (the mask, its
stride, the start and goal cells) to the cell path, kept as a tuple, and
the pop count. The planner keeps one memo per run; a `plan_motion` call
without one gets a fresh memo of its own. A result's `expansions` is the
pop count of the search that produced it, whether that search ran now or
earlier in the memo's scope.

An unreachable goal is proved, not searched out. A search still short
of its goal after `PROOF_CHECKPOINT` pops labels the free cells once, by
runs along each column, and the memo keeps that labelling under the
mask; when the goal lies outside the start's 8-connected component it
stops. A later search on a mask the memo has labelled asks before its
first pop, so an unreachable goal there costs one lookup. Its pop count
(`expansions`) still means the pops an exhaustive A* would make: the
component size, capped by the budget.

`plan_motion` plans a grounded action from the agent's config to one
goal point, and `execute` applies it; both read the action's roles,
`ActionTemplate.takes` and `places`. Every search, a leg's or the
diagnosis', runs under the one planning budget, `DEFAULT_MAX_EXPANSIONS`.

Stacking never forms a cycle: `execute` refuses a support that rests on
the object being placed.

Worlds are immutable values: a `World` is frozen and its `objects`,
`agents` and `markers` maps are read-only, so `execute` returns a new
world and a changed world is always a new one (`dataclasses.replace`).
Nothing a world shares with another is ever changed. Each world derives its
symbolic snapshot once and keeps it: `snapshot` and `world_signature`
return that one read-only `WorldState`, whose signature is a value: its
facts and its rounded poses. Every snapshot comes from one derivation,
`_derive`, which recomputes only the facts of the objects and agents a
change touches. A world made by `execute` derives its own from its
parent's; any other world derives its own on first read from the empty
world's, as a change in which every object and agent is new.
A world holds no run settings. Reads (`snapshot`, `plan_motion`) are
pure, apart from filling the search memo, and safe to repeat: the same
action, goal point and world give an equal result, with any memo or none.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Collection, Mapping, NamedTuple

import numpy as np

from .domain import DERIVED_PREDICATES, ActionTemplate, Fact

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

    @property
    def on(self) -> str | None:
        """`stack_on` under its scenario-file name. Its one reader is
        `containers_restored` in perfbench/workloads.py."""
        return self.stack_on

    @cached_property
    def pose(self) -> tuple[str, float, float, float]:
        """This object's pose in the world signature, made on first read."""
        return (self.id, round(self.x, 9), round(self.y, 9), round(self.yaw, 9))

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
    def pose(self) -> tuple[str, float, float]:
        """This agent's config in the world signature, made on first read."""
        return (self.id, round(self.config[0], 9), round(self.config[1], 9))


def _read_only(mapping: Mapping) -> MappingProxyType:
    """A read-only view of a private copy; a view is kept as it is, so
    views never nest when a world hands its maps to the next one."""
    if isinstance(mapping, MappingProxyType):
        return mapping
    return MappingProxyType(dict(mapping))


# A world's facts, and the `pose` of each of its objects and agents rounded
# to 9 decimals, so that float noise makes no new signature.
Signature = tuple[frozenset[Fact], frozenset[tuple]]


@dataclass(frozen=True)
class WorldState:
    """Read-only snapshot: the derived and stored facts, and the signature,
    those facts paired with the poses: frozensets, which compare by value
    and keep their hashes. Poses, holdings, configs and the clock are read
    from the `World` itself."""

    facts: frozenset[Fact]
    signature: Signature


@dataclass(frozen=True, eq=False)
class _Derivation:
    """A world's `WorldState` with what a later world's is derived from
    (`_derive`); every world's comes from `_NOTHING`, the empty world's,
    through a chain of them.

    `owned` maps each object and agent id to the derived facts it owns
    (see `_object_facts` and `_agent_facts`), and `derived` is those facts
    and `carrying`, without the stored ones; `children` maps each support
    to the ids resting directly on it, in id order. No list or map here is
    changed once made; a later world copies what it changes."""

    state: WorldState
    owned: Mapping[str, list[Fact]]
    derived: frozenset[Fact]
    children: Mapping[str, tuple[str, ...]]


_NOTHING = _Derivation(WorldState(frozenset(), (frozenset(), frozenset())), {}, frozenset(), {})


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
    resolution: float = DEFAULT_RESOLUTION

    def __post_init__(self):
        for name in ("objects", "agents", "markers"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @cached_property
    def _derivation(self) -> _Derivation:
        """Derived from the empty world's on first read, every object and
        agent being new, unless `execute` handed this world the one it
        derived from its parent's. An object and an agent that share an
        id would each own the other's facts, so such a world has none."""
        shared = self.objects.keys() & self.agents.keys()
        if shared:
            raise WorldError(f"ids shared by an object and an agent: {', '.join(sorted(shared))}")
        return _derive(_NOTHING, {}, self, sorted(self.objects), sorted(self.agents))

    @property
    def state(self) -> WorldState:
        """The symbolic view of this world, derived once."""
        return self._derivation.state


@dataclass(frozen=True)
class MotionResult:
    feasible: bool
    path: tuple[tuple[float, float], ...]
    expansions: int
    obstructors: tuple[str, ...]
    goal_point: tuple[float, float]
    world_sig: Signature
    detail: str = ""

    @cached_property
    def length(self) -> float:
        """The path's Euclidean length, computed on first read."""
        total = 0.0
        for (x0, y0), (x1, y1) in zip(self.path, self.path[1:]):
            total += math.hypot(x1 - x0, y1 - y0)
        return total


def mount_anchor(arm: Agent, base: tuple[float, float]) -> tuple[float, float]:
    """A mounted arm's anchor while its base stands at `base`."""
    return (base[0] + arm.mount_off[0], base[1] + arm.mount_off[1])


def world_from_scenario(scenario) -> World:
    """The initial world of a scenario, whose entities are this module's
    values: each agent at its declared point, a mounted arm by `mount_anchor`."""
    agents = {}
    for agent in scenario.agents.values():
        at = agent.anchor
        if agent.mount is not None:
            at = mount_anchor(agent, scenario.agents[agent.mount].anchor)
        agents[agent.id] = replace(agent, anchor=at, config=at)
    return World(bounds=scenario.bounds, objects=scenario.objects, agents=agents,
                 markers=scenario.markers, facts=frozenset(scenario.init))


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


def _above(children: Mapping[str, tuple[str, ...]], roots: Collection[str]) -> list[str]:
    """Everything resting on the roots, given each support's children,
    lowest first (breadth-first, siblings in id order). Skips an id it has
    already seen, so a stacking cycle cannot hang the walk."""
    walk, seen = list(roots), set(roots)
    for oid in walk:  # the list grows while it is walked: breadth-first
        for child in children.get(oid, ()):
            if child not in seen:
                seen.add(child)
                walk.append(child)
    return walk[len(roots):]


def stack_chain_up(world: World, obj_id: str) -> list[str]:
    """Everything resting on the object, lowest first, as `_above` walks."""
    return _above(world._derivation.children, (obj_id,))


def stack_top(world: World, obj_id: str) -> str:
    """Topmost object of the stack rooted at obj_id (itself when bare),
    following the smallest id where several objects share a support.
    Stops before an id it has already seen, as `stack_chain_down` does."""
    children = world._derivation.children
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


def world_signature(world: World) -> Signature:
    return world.state.signature


_CARRYING = Fact("carrying", ())


def _object_facts(world: World, oid: str, holders: Mapping[str, str],
                  children: Mapping[str, tuple[str, ...]]) -> list[Fact]:
    """The derived facts about one object: `on` and `at_peg` follow its
    stack, `holding`/`held` its holder; an object not held is `clear`
    with nothing on it, and a movable one is `at` each marker whose snap
    radius holds it."""
    obj = world.objects[oid]
    facts = []
    if obj.stack_on is not None:
        facts.append(Fact("on", (oid, obj.stack_on)))
        chain = stack_chain_down(world, oid)
        if chain:
            facts.append(Fact("at_peg", (oid, chain[-1])))
    if oid in holders:
        facts += [Fact("holding", (holders[oid], oid)), Fact("held", (oid,))]
        return facts
    if oid not in children:
        facts.append(Fact("clear", (oid,)))
    if obj.movable:
        facts += _at_markers(world, oid, obj.x, obj.y)
    return facts


def _agent_facts(world: World, agent: Agent) -> list[Fact]:
    """A base is `at` each marker whose snap radius holds its config."""
    if agent.kind != "base":
        return []
    return _at_markers(world, agent.id, *agent.config)


def _at_markers(world: World, entity_id: str, x: float, y: float) -> list[Fact]:
    """`at` the entity and each marker whose snap radius holds (x, y)."""
    return [Fact("at", (entity_id, marker.id)) for marker in world.markers.values()
            if math.hypot(x - marker.x, y - marker.y) <= marker.snap]


def _derive(base: _Derivation, before: Mapping[str, Obj], world: World,
            moved: Collection[str], changed: Collection[str]) -> _Derivation:
    """The world's derivation, made from `base`, the derivation of an
    earlier world whose objects were `before`, when `world` differs from it
    only in the objects `moved`, the agents `changed`, the stored facts and
    the clock. From `_NOTHING`, the empty world's, every object and agent
    is moved or changed.

    Only the facts owned by what the change touches are derived again:
    those of the moved objects (which include every object a changed
    agent takes or lets go), of their old and new supports, of whatever
    rests on a moved object and of the changed agents, and `carrying`.
    Each fact has one owner, so swapping an owner's old facts for its new
    ones leaves every other fact as it was. Each support's children are
    sorted once, so that from `_NOTHING` the derivation stays O(n log n)
    in the objects."""
    children = base.children
    owners = set(moved)
    resting: dict[str, set[str]] = {}  # each support the change touches -> the ids on it after
    for oid in moved:
        old = before[oid].stack_on if oid in before else None
        new = world.objects[oid].stack_on
        if old == new:
            continue
        for support in (old, new):  # oid leaves the one and joins the other
            if support is not None:
                if support not in resting:
                    resting[support] = set(children.get(support, ()))
                resting[support] ^= {oid}
        owners.update(support for support in (old, new) if support in world.objects)
    if resting:
        children = dict(children)
        for support, ids in resting.items():
            if ids:
                children[support] = tuple(sorted(ids))
            else:
                del children[support]
    owners.update(_above(children, moved))
    holders = held_by(world)
    owned = dict(base.owned)
    gone, came = [], []
    for oid in sorted(owners):
        gone += owned.get(oid, ())
        owned[oid] = facts = _object_facts(world, oid, holders, children)
        came += facts
    for aid in changed:
        gone += owned.get(aid, ())
        owned[aid] = facts = _agent_facts(world, world.agents[aid])
        came += facts
    (came if holders else gone).append(_CARRYING)
    gone, came = set(gone), set(came)
    derived = (base.derived - (gone - came)) | (came - gone)
    facts = derived | world.facts
    poses = frozenset(thing.pose for thing in (*world.objects.values(), *world.agents.values()))
    return _Derivation(WorldState(facts, (facts, poses)), owned, derived, children)


# ---------------------------------------------------------------- planning


@dataclass(frozen=True)
class _Leg:
    start: tuple[float, float]
    goal: tuple[float, float]
    carry: str | None  # object carried along this leg


def _legs_for(world: World, action: ActionTemplate, start: tuple[float, float],
              goal: tuple[float, float]) -> list[_Leg]:
    """An action that takes nothing (a transit, or a put carrying what it
    places) has one leg to the goal; one that takes an object first goes
    to it, and then, if it places the object, carries it to the goal."""
    if action.takes is None:
        return [_Leg(start, goal, action.manipulated)]
    grasp = entity_point(world, action.takes)
    if action.places is None:
        return [_Leg(start, grasp, None)]
    return [_Leg(start, grasp, None), _Leg(grasp, goal, action.takes)]


def _obstacles_for(world: World, agent: Agent, exclude: set[str]) -> list[Obj]:
    """Objects the moving body must avoid, in id order: those whose
    `blocks` tag names its kind or "all". Held objects travel with their
    arm and never count; for the base only floor-level (unstacked) objects
    matter. `_plan_leg` drops those the leg starts engaged with, and its
    diagnosis reads the same list."""
    holders = held_by(world)
    return [obj for oid, obj in sorted(world.objects.items())
            if oid not in exclude and oid not in holders and obj.blocks in ("all", agent.kind)
            and (agent.kind == "arm" or obj.stack_on is None)]


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
    path | None, pops), and `components` maps (free mask, stride) to the
    mask's component labelling, made by the first search on the mask
    that needs it. `rasters` holds each grid's free mask and the layers
    it is assembled from, each made once and kept read-only, under
    exactly the inputs each one reads:

    - a grid's cell-centre axes under its geometry (bounds, resolution);
    - an arm's reach disc under (geometry, anchor, reach);
    - an obstacle's footprint patch under (geometry, shape, dims, x, y,
      inflation);
    - a grid's free mask, as bytes, under (geometry, (anchor, reach) for
      an arm or None for a base, inflation, and each obstacle's (shape,
      dims, x, y)), for all its obstacles and for those `_changing` keeps.

    Grids whose kept obstacles agree share one mask object. `searches` and
    `components` are keyed on the mask's bytes, not on the obstacles:
    different obstacle lists often rasterize to the same mask.
    """

    searches: dict[tuple[bytes, int, tuple[int, int], tuple[int, int]],
                   tuple[tuple[tuple[int, int], ...] | None, int]] = field(default_factory=dict)
    components: dict[tuple[bytes, int], _Labelling] = field(default_factory=dict)
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

    A cell is blocked when it lies outside the arm's reach disc (none for
    a base) or under the footprint of any of the obstacles. `free_mask`
    is that raster inverted and padded by one ring of blocked cells,
    flattened to bytes: cell (x, y) is free when
    `free_mask[(x + 1) * stride + y + 1]` is non-zero, with
    `stride = ny + 2`, so a neighbour step never needs a range test.
    `_free_mask` assembles it, from the obstacles `_changing` keeps, once;
    later grids take it from `rasters` (a `SearchMemo.rasters`), where
    `footprint` also looks up the patch of any object.
    """

    def __init__(self, world: World, agent: Agent, obstacles: list[Obj], inflation: float,
                 rasters: dict):
        res = world.resolution
        self.rasters = rasters
        self.geometry = geometry = (world.bounds, res)
        self.axes = axes = _layer(rasters, geometry, lambda: _axes(world.bounds, res))
        self.res = res
        self.ix0, self.iy0, xs, ys = axes
        self.nx, self.ny = xs.shape[0], ys.shape[1]
        self.stride = self.ny + 2
        disc = (agent.anchor, agent.reach) if agent.kind == "arm" else None
        key = (geometry, disc, inflation,
               tuple([(obj.shape, obj.dims, obj.x, obj.y) for obj in obstacles]))
        self.free_mask = rasters.get(key)
        if self.free_mask is None:  # also kept under the key of only those that change it
            kept = _changing(disc, obstacles, inflation)
            self.free_mask = rasters[key] = _layer(rasters, (*key[:3], tuple(
                [(obj.shape, obj.dims, obj.x, obj.y) for obj in kept])),
                lambda: _free_mask(self, disc, kept, inflation))

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


def _free_mask(grid: _Grid, disc: tuple[tuple[float, float], float] | None,
               obstacles: list[Obj], inflation: float) -> bytes:
    """The grid's free mask (see `_Grid`): the cells outside the reach disc
    `(anchor, reach)` (none when None) OR-ed with the footprint patches of
    the `obstacles`, padded by one ring of blocked cells and inverted."""
    padded = np.ones((grid.nx + 2, grid.stride), dtype=bool)
    if disc is None:
        padded[1:-1, 1:-1] = False
    else:
        (ax, ay), reach = disc
        _, _, xs, ys = grid.axes
        padded[1:-1, 1:-1] = _layer(grid.rasters, (grid.geometry, *disc), lambda: _frozen(
            (xs - ax) ** 2 + (ys - ay) ** 2 > reach ** 2))
    for obj in obstacles:
        patch = grid.footprint(obj, inflation)
        if patch is not None:
            xa, xb, ya, yb, hit = patch
            padded[xa + 1:xb + 1, ya + 1:yb + 1] |= hit
    return np.logical_not(padded).tobytes()


def _changing(disc: tuple | None, obstacles: list[Obj], inflation: float) -> list[Obj]:
    """The `obstacles` that can change a grid's mask, in order: all but those
    whose footprint lies over 1e-9 m beyond the reach disc `disc`, or that
    another of their shape and centre covers (no smaller r*r or half-widths;
    of equal ones the first stays). Both compare the floats `_footprint`
    tests cells against, so the mask stays the same cell for cell."""
    sizes, same = [], {}
    for i, obj in enumerate(obstacles):
        dx, dy = (abs(obj.x - disc[0][0]), abs(obj.y - disc[0][1])) if disc else (0.0, 0.0)
        if obj.shape == "circle":
            r = obj.dims[0] + inflation
            sizes.append((r * r, r * r))
            gap = math.hypot(dx, dy) - r
        else:
            sizes.append((obj.dims[0] / 2.0 + inflation, obj.dims[1] / 2.0 + inflation))
            gap = math.hypot(max(dx - sizes[i][0], 0.0), max(dy - sizes[i][1], 0.0))
        if disc is None or gap <= disc[1] + 1e-9:
            same.setdefault((obj.shape, obj.x, obj.y), []).append(i)
    kept = {i for group in same.values() for i in group if not any(
        (sizes[j] != sizes[i] or j < i) and sizes[j][0] >= sizes[i][0]
        and sizes[j][1] >= sizes[i][1] for j in group)}
    return [obj for i, obj in enumerate(obstacles) if i in kept]


def _steps(stride: int) -> tuple[tuple[int, int], ...]:
    """The eight neighbour offsets of a flat cell index, each with its cost."""
    return ((stride, 5), (stride + 1, 7), (1, 5), (1 - stride, 7),
            (-stride, 5), (-stride - 1, 7), (-1, 5), (stride - 1, 7))


def _astar(grid: _Grid, start: tuple[int, int], goal: tuple[int, int], budget: int,
           components: dict) -> tuple[list[tuple[int, int]] | None, int]:
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

    `components` maps (free mask, stride) to the mask's labelling
    (`_components`); a search that labels its mask keeps it there. When
    the labelling is already held, the question is asked before the
    first pop: an unreachable goal returns at once, and a reachable one
    skips the checkpoint.
    """
    stride = grid.stride
    source = (start[0] + 1) * stride + start[1] + 1
    target = (goal[0] + 1) * stride + goal[1] + 1
    labelled = components.get((grid.free_mask, stride))
    checkpoint = PROOF_CHECKPOINT
    if labelled is not None and source != target:  # a blocked source equal to the goal is a path
        unreached = _unreached_pops(labelled, source, target)
        if unreached is not None:
            return None, min(unreached, budget)
        checkpoint = 0  # pops is at least 1 when it is compared: no proof to make
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
            key = (grid.free_mask, stride)
            if key not in components:
                components[key] = _components(grid.free_mask, stride)
            unreached = _unreached_pops(components[key], source, target)
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
    """`_astar` under the one budget and the memo's labellings, run only
    when the memo holds no search with the same inputs; the key keeps the
    mask's bytes, not the grid."""
    key = (grid.free_mask, grid.stride, start, goal)
    found = memo.searches.get(key)
    if found is None:
        cells, pops = _astar(grid, start, goal, DEFAULT_MAX_EXPANSIONS, memo.components)
        found = memo.searches[key] = (None if cells is None else tuple(cells), pops)
    return found


class _Labelling(NamedTuple):
    """A free mask's 8-connected components, as runs: run i covers flat
    cells [starts[i], ends[i]) and belongs to the component `roots[i]`,
    whose cell count is `sizes[roots[i]]`."""

    stride: int
    starts: list[int]
    ends: list[int]
    roots: list[int]
    sizes: dict[int, int]


def _components(free_mask: bytes, stride: int) -> _Labelling:
    """Label the free cells by runs: the maximal stretches of free cells
    along y, which the padding ring ends at their column. A run links to
    each run of the next column whose y range overlaps it or touches it
    diagonally, which is exactly 8-connectivity; linked runs are joined
    in a union-find."""
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
    roots = [root(i) for i in range(len(parent))]
    sizes: dict[int, int] = {}
    for i, r in enumerate(roots):
        sizes[r] = sizes.get(r, 0) + ends[i] - starts[i]
    return _Labelling(stride, starts, ends, roots, sizes)


def _unreached_pops(labelling: _Labelling, source: int, target: int) -> int | None:
    """The cells A* from `source` can reach, counted, when `target` is not
    one of them; None when it is. A blocked `source` is still popped
    once, and reaches the components of its free neighbours."""
    starts, ends, roots = labelling.starts, labelling.ends, labelling.roots

    def run_of(cell: int) -> int | None:
        i = bisect.bisect_right(starts, cell) - 1
        return i if i >= 0 and cell < ends[i] else None

    home = run_of(source)
    if home is not None:
        seeds, pops = [home], 0
    else:
        seeds = [run_of(source + offset) for offset, _ in _steps(labelling.stride)]
        pops = 1
    reached = {roots[i] for i in seeds if i is not None}
    goal_run = run_of(target)
    if goal_run is not None and roots[goal_run] in reached:
        return None
    return pops + sum(labelling.sizes[r] for r in reached)


def plan_motion(world: World, agent_id: str, action: ActionTemplate,
                goal_point: tuple[float, float], memo: SearchMemo | None = None
                ) -> MotionResult:
    """Plan a grounded geometric action for `agent_id`, from its config to
    `goal_point`; transfers plan both legs before reporting success. Each
    leg searches under the whole budget, so a leg that repeats an earlier
    search finds it in the memo.

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
    if memo is None:
        memo = SearchMemo()
    sig = world_signature(world)
    agent = world.agents.get(agent_id)
    if agent is None:
        raise UnknownEntity(f"agent {agent_id!r} not in world")
    takes, places = action.takes, action.places

    def done(feasible, path, expansions, obstructors, detail):
        return MotionResult(feasible, tuple(path), expansions, tuple(obstructors),
                            goal_point, sig, detail)

    if agent.kind == "arm":
        if not reaches(agent, goal_point):
            return done(False, (), 0, (), "goal out of reach")
        if takes is not None:
            if not reaches(agent, entity_point(world, takes)):
                return done(False, (), 0, (), "manipulated object out of reach")
            above = stack_chain_up(world, takes)
            if above:
                return done(False, (), 0, tuple(reversed(above)),
                            "manipulated object is not stack-top")

    # What the moving body may touch: the object it moves with everything
    # under it, and the destination object with everything on it.
    exclude: set[str] = set()
    if action.manipulated is not None:
        exclude.update([action.manipulated, *stack_chain_down(world, action.manipulated)])
    if places in world.objects:
        exclude.update([places, *stack_chain_up(world, places)])
    total_expansions = 0
    full_path: list[tuple[float, float]] = []
    for index, leg in enumerate(_legs_for(world, action, agent.config, goal_point)):
        path, expansions, obstructors, detail = _plan_leg(world, agent, leg, exclude, memo)
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


def _plan_leg(world: World, agent: Agent, leg: _Leg, exclude: set[str], memo: SearchMemo):
    """One grid search around the leg's obstacles, every object the body
    must avoid but `exclude`; returns (path | None, expansions,
    obstructors, detail)."""
    inflation = DEFAULT_CLEARANCE + _body_radius(world, agent, leg.carry)
    # Engagement tolerance: bodies begin flush against whatever they just
    # touched; those footprints cannot invalidate the start.
    obstacles = [obj for obj in _obstacles_for(world, agent, exclude)
                 if not _covers(obj, leg.start, inflation)]
    grid = _Grid(world, agent, obstacles, inflation, memo.rasters)
    start_cell = grid.cell(leg.start)
    goal_cell = grid.cell(leg.goal)
    if not grid.free(start_cell):
        raise InvalidQuery(
            f"agent {agent.id}: start {leg.start} in collision or outside region")
    if not grid.free(goal_cell):
        obstructors = _diagnose(world, agent, leg, obstacles, inflation, memo)
        return None, 0, obstructors, "goal cell blocked"
    cells, expansions = _search(memo, grid, start_cell, goal_cell)
    if cells is None:
        obstructors = _diagnose(world, agent, leg, obstacles, inflation, memo)
        return None, expansions, obstructors, "no path within budget"
    points = [grid.center(c) for c in cells]
    points[0] = leg.start
    points[-1] = leg.goal
    return points, expansions, (), ""


def _diagnose(world: World, agent: Agent, leg: _Leg, obstacles: list[Obj], inflation: float,
              memo: SearchMemo) -> tuple[str, ...]:
    """The movables among the leg's `obstacles` that block the path a grid
    of only its fixed ones allows, in path order: each one's first path
    cell its footprint patch covers."""
    movables = [obj for obj in obstacles if obj.movable]
    grid = _Grid(world, agent, [obj for obj in obstacles if not obj.movable], inflation,
                 memo.rasters)
    start_cell = grid.cell(leg.start)
    goal_cell = grid.cell(leg.goal)
    if not grid.free(start_cell) or not grid.free(goal_cell):
        return ()
    cells, _ = _search(memo, grid, start_cell, goal_cell)
    if cells is None:
        return ()
    px, py = np.array(cells).T
    x0, x1, y0, y1 = int(px.min()), int(px.max()), int(py.min()), int(py.max())
    first_hit: dict[str, int] = {}
    for obj in movables:  # one whose window misses the path's cell bounds is skipped
        patch = grid.footprint(obj, inflation)
        if patch is None or patch[0] > x1 or patch[1] <= x0 or patch[2] > y1 or patch[3] <= y0:
            continue
        xa, xb, ya, yb, hit = patch
        inside = np.flatnonzero((px >= xa) & (px < xb) & (py >= ya) & (py < yb))
        hits = inside[hit[px[inside] - xa, py[inside] - ya]]
        if hits.size:
            first_hit[obj.id] = int(hits[0])
    return tuple(sorted(first_hit, key=lambda oid: (first_hit[oid], oid)))


# ---------------------------------------------------------------- execution


def _resolve_support(world: World, dest: str, manipulated: str) -> str | None:
    """The object `manipulated` will rest on: the top of dest's stack.

    Raises InvalidQuery when that would close a stacking cycle, i.e. the
    support is the object itself or rests on it.
    """
    if dest not in world.objects:
        return None
    support = stack_top(world, dest)
    if support == manipulated or manipulated in stack_chain_down(world, support):
        raise InvalidQuery(f"putting {manipulated} on {support} would close a stacking cycle")
    return support


def execute(world: World, agent_id: str, result: MotionResult,
            action: ActionTemplate) -> World:
    """Apply a planned motion (or a symbolic action) to a copy of the world.

    Reads the action's roles, as `plan_motion` does. Raises
    StaleResult when the world signature no longer matches the one the
    plan was computed against. Never creates or destroys objects. The
    new world comes with its state, derived from this world's by `_derive`,
    the one derivation every world's state comes from.
    """
    if result is not None and result.world_sig != world_signature(world):
        raise StaleResult(f"world moved since planning {action.name}")
    moved: dict[str, Obj] = {}
    changed: dict[str, Agent] = {}
    facts = set(world.facts)
    clock = world.clock

    if not action.is_geometric():
        clock += action.duration
    else:
        manipulated = action.manipulated
        agent = world.agents[agent_id]
        clock += result.length / MOVE_SPEED
        end = result.path[-1] if result.path else agent.config
        if manipulated is None:
            changed[agent_id] = replace(agent, anchor=end, config=end)
            for aid, other in world.agents.items():
                if other.mount == agent_id:
                    # Arms stow over their mount point while the base
                    # drives, so every later leg starts from the mount.
                    new_anchor = mount_anchor(other, end)
                    changed[aid] = replace(other, anchor=new_anchor, config=new_anchor)
                    if other.holding is not None:
                        held = world.objects[other.holding]
                        moved[other.holding] = replace(held, x=new_anchor[0], y=new_anchor[1])
        elif action.places is None:  # grasp
            obj = world.objects[manipulated]
            changed[agent_id] = replace(agent, config=end, holding=manipulated)
            moved[manipulated] = replace(obj, x=end[0], y=end[1], stack_on=None)
        else:  # put, or fused transfer
            if action.takes is None and agent.holding != manipulated:
                raise InvalidQuery(f"agent {agent_id} does not hold {manipulated}")
            support = _resolve_support(world, action.places, manipulated)
            obj = world.objects[manipulated]
            goal = result.goal_point
            changed[agent_id] = replace(agent, config=end, holding=None)
            moved[manipulated] = replace(obj, x=goal[0], y=goal[1], stack_on=support)

    for fact in action.effects_del:
        if fact.predicate not in DERIVED_PREDICATES:
            facts.discard(fact)
    for fact in action.effects_add:
        if fact.predicate not in DERIVED_PREDICATES:
            facts.add(fact)

    child = replace(world, objects={**world.objects, **moved},
                    agents={**world.agents, **changed}, facts=frozenset(facts), clock=clock)
    derivation = _derive(world._derivation, world.objects, child, moved, changed)
    # Fills the cached property, as its first read would.
    object.__setattr__(child, "_derivation", derivation)
    return child
