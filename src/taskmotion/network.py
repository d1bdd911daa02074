"""Network of task graphs that grows while the task is being solved.

One graph describes one decision stage. The first graph is instantiated
from the scenario's main template; every executed step, every geometric
dead end, and every exhausted frontier appends a further graph instead of
mutating an existing one. The network therefore records the full history
of the run, and its length is the reported search depth.

Each template is validated once, by `GraphTemplate.checked`, whose one
pass over the template's integer columns also gives every node its
height, and compiled once into a `CompiledGraph` that every graph
instantiated from it shares: the main template on first use, a composed
rearrangement template when it is composed. Compilation gathers numpy
arrays from the columns; it builds no node or arc objects. A compiled
graph gives each priced arc one place, which pricing, the frontier and
selection all index; the `HyperArc` of a place is built only when the
frontier offers it as a candidate. A `GraphEntry` holds only what
differs between instantiations: its leaf truths, read from the facts it
was instantiated against. An entry never changes; an executed step is
followed by a new entry, or the run ends. The newest entry is priced
once, when it is first searched: the bottom-up min-cost evaluation of
AO* (Martelli & Montanari, 1973), run one level of equal height at a
time over numpy arrays.

Candidates are drawn from the newest graph only. A node is a candidate
when at least one of its incoming arcs has only true leaves as children,
the arc's actions are symbolically applicable, and the combination has
not been suppressed in the current world; only arcs that one segment
reduction finds enabled are tested for the last two. Selection prefers
arcs on the minimal-cost solution of the graph; when the root is
currently unsolvable it falls back to the cheapest applicable arc with
the lowest arc id. A candidate's total is read from the priced totals at
its arc's place, and the solution is a map from node to place.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Collection, Iterable, NamedTuple

import numpy as np

from .andor import (  # noqa: F401 - see the note below
    KINDS,
    GraphTemplate,
    HyperArc,
    NodeDecl,
    NodeKind,
    augment,
    build_graph,
    node_cost,
    set_leaf_truth,
    solution_subgraph,
    solved,
)
from .domain import ActionTemplate, Fact, chain_applicable

# `build_graph`, `augment`, `set_leaf_truth`, and `solved`, `node_cost` and
# `solution_subgraph`, the from-scratch pricing of `andor` that the tests
# keep as the reference for `CompiledGraph`, are not called here. They stay
# bound because the layer trace in perfbench/tracer.py patches these names
# on this module.


class NetworkError(Exception):
    pass


class DepthLimitExceeded(NetworkError):
    """The network was asked to grow beyond its configured depth cap."""

    def __init__(self, depth: int, cap: int):
        self.depth = depth
        self.cap = cap
        super().__init__(f"network depth {depth} is at its cap {cap}")


class ExpansionCycle(NetworkError):
    """The same expansion was requested twice with nothing changed."""


class UnknownStage(NetworkError):
    pass


class ExpandReason(Enum):
    STAGE_COMPLETE = "stage_complete"
    MOTION_FAILURE = "motion_failure"
    NO_FEASIBLE_STATE = "no_feasible_state"


OBSTRUCTION_PREDICATE = "obstructs"


class _Level(NamedTuple):
    """The priced nodes of one height as slices of positions, places and `children`."""

    nodes: slice
    arcs: slice
    children: slice
    arc_starts: np.ndarray  # each arc's first index in the level's children
    node_starts: np.ndarray  # each node's first arc, counted from `arcs.start`


class CompiledGraph:
    """A validated template, flattened once for repeated pricing and search.

    Arc weights are scaled to integers by the least common multiple of
    their denominators, so costs are exact integers that order and tie
    exactly like the rational costs of `andor`; a finite cost divided by
    `scale` is the rational one. An unsolved node costs `inf`, one above
    a bound on every finite cost. Weights are never negative, so clamping
    every arc total to `inf` is exact.

    The root and the internal nodes with arcs are priced. A node's level
    is its height from `template.checked`, the longest chain of arcs down
    to a node that is not priced (a leaf, the failure node or a node
    without arcs); those make up level 0. Nodes have positions in the cost
    array, by level then id; `ids` and `pos` map between the two. Each arc
    of a priced node, which is every arc but the failure node's, has one
    place, node by node in position order and by id within a node, so the
    node at position p owns places `arc_start[p]` up to `arc_start[p + 1]`.
    A place indexes `price`'s totals, `parents`, `weights`, `decl` (the
    arc's declaration index in the template) and `child_start`, which
    bounds the arc's children in `children`. Everything is gathered from
    the template's columns with numpy; an arc's `HyperArc` is built only
    when `arc` is asked for its place, and kept.

    Nodes of one level never depend on each other, so `price` evaluates a
    level in a few numpy segment reductions over its `_Level` slices;
    `enabled` is one reduction of an achieved mask gathered at `children`,
    read in `by_parent_id` order. Costs are `int64` when every unclamped
    arc total fits, and Python integers in an object array otherwise,
    through the same code. The graph is shared by every entry and never
    mutated: its leaves all stay false.
    """

    def __init__(self, template: GraphTemplate):
        checked = template.checked
        self.template = template
        self.root = template.root
        height = checked.height
        by_id = np.argsort(template.ids, kind="stable")
        node_at = by_id[np.argsort(height[by_id], kind="stable")]  # declaration index by position
        self.ids = template.ids[node_at].tolist()
        self.pos = dict(zip(self.ids, range(len(self.ids))))
        pos_of = np.empty(len(node_at), dtype=np.intp)
        pos_of[node_at] = np.arange(len(node_at))
        self.labels = np.array(template.labels, dtype=object)[node_at]
        # Places: the priced arcs by parent position, then by id.
        parent_pos = pos_of[checked.parent]
        priced = np.flatnonzero(height[checked.parent] > 0)
        priced = priced[np.argsort(template.arc_ids[priced], kind="stable")]
        self.decl = priced[np.argsort(parent_pos[priced], kind="stable")]
        self.parents = parent_pos[self.decl]
        self.arc_start = np.concatenate(
            ([0], np.cumsum(np.bincount(self.parents, minlength=len(node_at)))))
        self.by_parent_id = np.argsort(template.parents[self.decl], kind="stable")
        self._place_ids = template.arc_ids[self.decl]
        self._by_arc_id = np.argsort(self._place_ids, kind="stable")
        declared_start = template.child_starts[self.decl]
        count = template.child_starts[self.decl + 1] - declared_start
        self.child_start = np.concatenate(([0], np.cumsum(count)))
        self.arc_starts = self.child_start[:-1]
        self.children = pos_of[checked.child[np.repeat(declared_start - self.arc_starts, count)
                                             + np.arange(self.child_start[-1])]]
        self.scale = math.lcm(*set(template.weight_den.tolist()))
        weights = (template.weight_num[self.decl].astype(object)
                   * (self.scale // template.weight_den[self.decl].astype(object)))
        self.levels = []
        level_of = height[node_at]
        bounds = np.flatnonzero(np.diff(level_of)) + 1
        for lo, hi in zip(bounds, [*bounds[1:], len(node_at)]):
            first, last = self.arc_start[lo], self.arc_start[hi]
            self.levels.append(_Level(slice(lo, hi), slice(first, last),
                                      slice(self.child_start[first], self.child_start[last]),
                                      self.arc_starts[first:last] - self.child_start[first],
                                      self.arc_start[lo:hi] - first))
        # Every finite cost is at most its node's most expensive derivation.
        bound = np.zeros(len(node_at), dtype=object)
        for level in self.levels:
            totals = (np.add.reduceat(bound[self.children[level.children]], level.arc_starts)
                      + weights[level.arcs])
            bound[level.nodes] = np.maximum.reduceat(totals, level.node_starts)
        self.inf = int(bound.max()) + 1
        # An unclamped total is below (arity + 1) * inf: `arity` child costs
        # of at most `inf` each plus a weight below it.
        arity = int(np.diff(template.child_starts).max(initial=0))
        self.dtype = np.int64 if (arity + 1) * self.inf < 2**62 else object
        self.weights = weights.astype(self.dtype)
        self.leaf_facts: tuple[tuple[int, Fact], ...] = tuple(_leaf_facts(template))
        self._arcs: dict[int, HyperArc] = {}

    def arc(self, place: int) -> HyperArc:
        """The arc at a place, built on first request and kept."""
        arc = self._arcs.get(place)
        if arc is None:
            arc = self._arcs[place] = self.template.arc(int(self.decl[place]))
        return arc

    def enabled(self, achieved: Collection[int]) -> list[int]:
        """The places of the priced arcs whose children are all in
        `achieved` and whose parent is not, by parent id then arc id."""
        mask = np.zeros(len(self.ids), dtype=bool)
        mask[[self.pos[nid] for nid in achieved]] = True
        ready = np.logical_and.reduceat(mask[self.children], self.arc_starts)
        ready &= ~mask[self.parents]
        return self.by_parent_id[ready[self.by_parent_id]].tolist()

    def price(self, true_leaves: Collection[int]) -> tuple[np.ndarray, np.ndarray]:
        """Scaled cost of every node by position and total of every arc by
        place, both clamped to `inf`, when exactly `true_leaves` hold."""
        cost = np.full(len(self.ids), self.inf, dtype=self.dtype)
        cost[[self.pos[lid] for lid in true_leaves]] = 0
        totals = np.empty(len(self.decl), dtype=self.dtype)
        for nodes, arcs, children, arc_starts, node_starts in self.levels:
            level_totals = np.add.reduceat(cost[self.children[children]], arc_starts,
                                           out=totals[arcs])
            level_totals += self.weights[arcs]
            np.minimum(level_totals, self.inf, out=level_totals)
            cost[nodes] = np.minimum.reduceat(level_totals, node_starts)
        return cost, totals

    def cheapest(self, cost: np.ndarray, totals: np.ndarray, nid: int) -> int | None:
        """The place of the cheapest arc into a solved priced node, ties to
        the lowest arc id (argmin takes the first minimum); None for any
        other node."""
        p = self.pos[nid]
        start, stop = self.arc_start[p], self.arc_start[p + 1]
        if start == stop or cost[p] >= self.inf:
            return None
        return int(start + np.argmin(totals[start:stop]))

    def place(self, arc: HyperArc) -> int:
        """The place of a priced arc, looked up by its id."""
        return int(self._by_arc_id[np.searchsorted(self._place_ids, arc.id,
                                                   sorter=self._by_arc_id)])

    def solution(self, cost: np.ndarray, totals: np.ndarray) -> dict[int, int]:
        """The place of the arc `andor.solution_subgraph` picks for each node
        it picks one for, from one `price` result."""
        chosen: dict[int, int] = {}
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in chosen:
                continue
            place = self.cheapest(cost, totals, nid)
            if place is not None:
                chosen[nid] = place
                stack.extend(self.ids[p] for p in self.children[
                    self.child_start[place]:self.child_start[place + 1]].tolist())
        return chosen


def _leaf_facts(template: GraphTemplate):
    for i in np.flatnonzero(template.kinds == KINDS.index(NodeKind.LEAF)).tolist():
        try:
            yield int(template.ids[i]), Fact.parse(template.labels[i])
        except ValueError:
            continue  # an empty label states no fact; the leaf stays false


@dataclass(frozen=True)
class GraphEntry:
    """One instantiation of a compiled graph: the leaves that hold in it."""

    compiled: CompiledGraph
    kind: str  # "main" | "rearrangement"
    true_leaves: frozenset[int]


@dataclass(frozen=True)
class Candidate:
    """One executable option: achieve `node_id` through `arc`."""

    node_id: int
    label: str
    arc: HyperArc
    actions: tuple[ActionTemplate, ...]

    def key(self) -> tuple[str, tuple[str, ...]]:
        return (self.label, tuple(a.name for a in self.actions))


class GraphNetwork:
    def __init__(self, main_template: GraphTemplate,
                 stage_templates: dict[str, GraphTemplate],
                 actions: dict[str, ActionTemplate],
                 depth_cap: int = 512):
        if depth_cap < 1:
            raise ValueError(f"depth cap {depth_cap} is below 1: the network "
                             "holds its first graph from the start")
        self.main_template = main_template
        self.stage_templates = dict(stage_templates)
        self.actions = dict(actions)
        self.depth_cap = depth_cap
        self.entries: list[GraphEntry] = []
        self.knowledge: set[Fact] = set()
        self.suppressed: set[tuple[str, tuple[str, ...], str]] = set()
        self._expansion_seen: set[tuple] = set()
        self._main: CompiledGraph | None = None
        # (entry, costs, arc totals) of the entry last searched.
        self._pricing: tuple[GraphEntry, np.ndarray, np.ndarray] | None = None

    # -- structure ---------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def latest(self) -> GraphEntry:
        return self.entries[-1]

    def bootstrap(self, facts: frozenset[Fact]) -> GraphEntry:
        if self.entries:
            raise NetworkError("network already bootstrapped")
        return self._instantiate_main(facts)

    def _instantiate_main(self, facts: frozenset[Fact]) -> GraphEntry:
        # Compiled on first use and kept: the main template never changes.
        if self._main is None:
            self._main = CompiledGraph(self.main_template)
        return self._instantiate(self._main, "main", facts)

    def _instantiate(self, compiled: CompiledGraph, kind: str,
                     facts: frozenset[Fact]) -> GraphEntry:
        known = facts | self.knowledge
        true_leaves = frozenset(lid for lid, fact in compiled.leaf_facts if fact in known)
        entry = GraphEntry(compiled, kind, true_leaves)
        self.entries.append(entry)
        return entry

    def _priced(self) -> tuple[np.ndarray, np.ndarray]:
        """`CompiledGraph.price` of the newest entry, computed once per entry;
        its leaf truths never change."""
        entry = self.latest
        if self._pricing is None or self._pricing[0] is not entry:
            self._pricing = (entry, *entry.compiled.price(entry.true_leaves))
        return self._pricing[1], self._pricing[2]

    # -- candidate enumeration and selection --------------------------------

    def frontier(self, facts: frozenset[Fact], world_sig: str) -> list[Candidate]:
        """Executable candidates of the newest graph, by node id then arc id."""
        if not self.entries:
            raise NetworkError("network not bootstrapped")
        entry = self.latest
        compiled = entry.compiled
        out = []
        for place in compiled.enabled(entry.true_leaves):
            names = compiled.template.actions[compiled.decl[place]]
            label = compiled.labels[compiled.parents[place]]
            if (label, names, world_sig) in self.suppressed:
                continue
            actions = tuple(self.actions[name] for name in names)
            if not chain_applicable(facts, actions):
                continue
            arc = compiled.arc(place)
            out.append(Candidate(arc.parent, label, arc, actions))
        return out

    def select(self, facts: frozenset[Fact], world_sig: str) -> Candidate | None:
        """Pick the next candidate to execute, or None when none remain."""
        candidates = self.frontier(facts, world_sig)
        if not candidates:
            return None
        compiled = self.latest.compiled
        cost, totals = self._priced()
        chosen = compiled.solution(cost, totals)
        placed = [(compiled.place(c.arc), c) for c in candidates]
        on_solution = [(place, c) for place, c in placed if chosen.get(c.node_id) == place]
        if on_solution:
            placed = on_solution
        # Unsolved totals are all `inf`, above every finite one, so they
        # come last and tie on to the arc id.
        return min(placed, key=lambda pc: (totals[pc[0]], pc[1].arc.id, pc[1].node_id))[1]

    def suppress(self, candidate: Candidate, world_sig: str):
        label, names = candidate.key()
        self.suppressed.add((label, names, world_sig))

    # -- expansion -----------------------------------------------------------

    def expand(self, reason: ExpandReason, facts: frozenset[Fact],
               obstructor_ids: tuple[str, ...] = ()) -> GraphEntry:
        """Append the next graph; how it is built depends on the reason.

        Stage completion and an exhausted frontier re-instantiate the main
        template against the current facts. A geometric dead end composes
        the relocation stages of the reported obstructors into one graph
        and records what obstructs what as network knowledge.
        """
        if len(self.entries) >= self.depth_cap:
            raise DepthLimitExceeded(len(self.entries), self.depth_cap)
        if reason is ExpandReason.MOTION_FAILURE:
            return self._expand_rearrangement(facts, obstructor_ids)
        if reason is ExpandReason.NO_FEASIBLE_STATE:
            signature = self._expansion_signature(facts)
            if signature in self._expansion_seen:
                raise ExpansionCycle(
                    "frontier exhausted twice with identical state and knowledge")
            self._expansion_seen.add(signature)
        return self._instantiate_main(facts)

    def _expansion_signature(self, facts: frozenset[Fact]) -> tuple:
        return ("main", tuple(sorted(f.text() for f in facts)),
                tuple(sorted(self.suppressed)), tuple(sorted(
                    f.text() for f in self.knowledge)))

    def relocation_stages(self, obstructor_ids: Iterable[str]
                          ) -> list[tuple[str, GraphTemplate]]:
        """The relocation stage `clear_<id>` of each obstructor that has one,
        in the given order."""
        return [(oid, stage) for oid in obstructor_ids
                if (stage := self.stage_templates.get(f"clear_{oid}")) is not None]

    def _expand_rearrangement(self, facts: frozenset[Fact],
                              obstructor_ids: tuple[str, ...]) -> GraphEntry:
        stages = self.relocation_stages(obstructor_ids)
        if not stages:
            raise UnknownStage(
                "no relocation stage for any of: " + ", ".join(obstructor_ids))
        for oid, _ in stages:
            self.knowledge.add(Fact(OBSTRUCTION_PREDICATE, (oid,)))
        compiled = CompiledGraph(compose_rearrangement(stages))
        return self._instantiate(compiled, "rearrangement", facts)


def compose_rearrangement(stages: list[tuple[str, GraphTemplate]]) -> GraphTemplate:
    """Merge per-obstructor stage templates under one fresh root.

    Every stage keeps its internal structure; its root is demoted to an
    internal node and gains one extra child: a knowledge leaf stating the
    obstruction it answers. The composite root requires all stage roots
    at once, mirroring that feasibility returns only when every reported
    obstruction is gone.
    """
    nodes = [NodeDecl(1, NodeKind.ROOT, "obstructions cleared"),
             NodeDecl(2, NodeKind.FAILURE, "rearrangement impossible")]
    arcs: list[HyperArc] = []
    ids = itertools.count(3)
    arc_ids = itertools.count(2)
    stage_roots = []
    for oid, template in stages:
        root, failure = template.root, template.failure
        remap: dict[int, int] = {}
        for decl in sorted(template.nodes, key=lambda d: d.id):
            if decl.id == failure:
                remap[decl.id] = 2
                continue
            new_id = next(ids)
            remap[decl.id] = new_id
            kind = NodeKind.INTERNAL if decl.id == root else decl.kind
            nodes.append(NodeDecl(new_id, kind, decl.label))
        knowledge_leaf = next(ids)
        nodes.append(NodeDecl(knowledge_leaf, NodeKind.LEAF,
                              Fact(OBSTRUCTION_PREDICATE, (oid,)).text()))
        for arc in sorted(template.arcs, key=lambda a: a.id):
            children = tuple(remap[c] for c in arc.children)
            if arc.parent == root:
                children = children + (knowledge_leaf,)
            arcs.append(HyperArc(next(arc_ids), remap[arc.parent], children,
                                 arc.weight, arc.actions))
        stage_roots.append(remap[root])
    arcs.insert(0, HyperArc(1, 1, tuple(stage_roots), Fraction(0)))
    return GraphTemplate.of(nodes, arcs)

