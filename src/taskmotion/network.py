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
selection all index. A candidate carries its arc's place and id, read
from the compiled columns, so the frontier and selection build no arc
object, and a rearrangement template is written through an
`andor.GraphBuilder` from the rows of its stages. A `GraphEntry`
holds only what differs between instantiations: its leaf truths, read
from the facts it was instantiated against. An entry never changes; an
executed step is followed by a new entry, or the run ends.

When the newest entry is first searched, it is priced once, in one pass
that touches only its solved part. Its ready arcs, those whose children
all hold, are found by counting: each true leaf's parent arcs, read from
a child-to-arcs index, are counted once per child with one
`np.bincount`, and an arc is ready when its count reaches its number of
children (the counter per clause of Dowling & Gallier's linear-time Horn
satisfiability, 1984). The count is then carried up the graph as in
Knuth's generalization of Dijkstra's algorithm to superior functions
(1977): the solved nodes are taken in position order, which runs by
height, so each is taken once, after all of its arcs are final, and
counts its own parent arcs. An arc whose count reaches its arity is
complete and totals its weight plus its children's costs, in exact
Python integers; a node keeps its least (total, place). That is the
bottom-up min-cost evaluation of AO* (Martelli & Montanari, 1973)
restricted to the finite costs. The network keeps the result for the
entry last searched, never on the entry.

Candidates are drawn from the newest graph only. A node is a candidate
when at least one of its incoming arcs has only true leaves as children,
the arc's actions are symbolically applicable, and the combination has
not been suppressed in the current world; only the ready arcs are
tested for the last two. Selection prefers arcs on the minimal-cost
solution of the graph; when the root is currently unsolvable it falls
back to the cheapest applicable arc with the lowest arc id. A
candidate's total is read from the priced totals at its arc's place,
and the solution is the set of places reached from the root through
each solved node's cheapest arc.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, NamedTuple

import numpy as np

from .andor import (  # noqa: F401 - see the note below
    KINDS,
    GraphBuilder,
    GraphTemplate,
    NodeKind,
    augment,
    build_graph,
    node_cost,
    set_leaf_truth,
    solution_subgraph,
    solved,
)
from .domain import ActionTemplate, Fact, chain_applicable
from .world import Signature

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
    """A graph of the same stages was to be instantiated again in a state
    it was instantiated in before: the run would repeat itself."""


class UnknownStage(NetworkError):
    pass


class ExpandReason(Enum):
    STAGE_COMPLETE = "stage_complete"
    MOTION_FAILURE = "motion_failure"
    NO_FEASIBLE_STATE = "no_feasible_state"


OBSTRUCTION_PREDICATE = "obstructs"

DEFAULT_DEPTH_CAP = 512  # the most graphs a network holds unless told otherwise


class Priced(NamedTuple):
    """What `CompiledGraph.price` finds for one set of true leaves: the
    enabled places, by parent id then arc id; each solved priced node's
    cost and the place of its cheapest arc, by position; and each arc's
    total by place, for every arc whose children are all solved."""

    enabled: list[int]
    best: dict[int, tuple[int, int]]
    totals: dict[int, int]


class CompiledGraph:
    """A validated template, flattened once for repeated pricing and search.

    Arc weights are scaled to integers by the least common multiple of
    their denominators, so costs are exact Python integers that order and
    tie exactly like the rational costs of `andor`; a cost divided by
    `scale` is the rational one. Only finite costs are computed: a node or
    arc that `price` does not report is unsolved.

    The root and the internal nodes with arcs are priced. A node's level
    is its height from `template.checked`, the longest chain of arcs down
    to a node that is not priced (a leaf, the failure node or a node
    without arcs); those make up level 0. Nodes have positions, by level
    then id; `ids` gives each position's id, and a priced node's children
    all have lower positions than it. Each arc of a priced node, which is
    every arc but the failure node's, has one place, node by node in
    position order and by id within a node, so a node's lowest place is
    its lowest arc id. A place indexes `parents` (the parent's position),
    `weights`, `arc_ids`, `arity` (its number of children), `decl` (the
    arc's declaration index in the template) and `child_start`, which bounds
    the arc's children, as positions, in `children`. Everything is gathered
    from the template's columns with numpy; no node or arc object is built.

    `fan` and `fan_start` index `children` the other way round: by
    position, the places of the node's parent arcs, once per child slot,
    as slices of one column sorted by child (CSR); `fan_out` holds the
    leaves' slices by leaf id. `price` counts, per arc, its children known
    to be solved: first the true leaves' parent arcs in one `np.bincount`,
    then, taking the solved priced nodes in position order, each one's
    parent arcs. An arc is complete when its count reaches its arity. The
    graph is shared by every entry and never mutated: its leaves all stay
    false.
    """

    def __init__(self, template: GraphTemplate):
        checked = template.checked
        self.template = template
        height = checked.height
        by_id = np.argsort(template.ids, kind="stable")
        node_at = by_id[np.argsort(height[by_id], kind="stable")]  # declaration index by position
        self.ids = template.ids[node_at]
        pos_of = np.empty(len(node_at), dtype=np.intp)
        pos_of[node_at] = np.arange(len(node_at))
        self.root_pos = int(pos_of[checked.root])
        self.labels = np.array(template.labels, dtype=object)[node_at]
        # Places: the priced arcs by parent position, then by id.
        parent_pos = pos_of[checked.parent]
        priced = np.flatnonzero(height[checked.parent] > 0)
        priced = priced[np.argsort(template.arc_ids[priced], kind="stable")]
        self.decl = priced[np.argsort(parent_pos[priced], kind="stable")]
        self.parents = parent_pos[self.decl]
        self.arc_ids = template.arc_ids[self.decl]
        declared_start = template.child_starts[self.decl]
        count = template.child_starts[self.decl + 1] - declared_start
        self.child_start = np.concatenate(([0], np.cumsum(count)))
        self.children = pos_of[checked.child[np.repeat(declared_start - self.child_start[:-1],
                                                       count)
                                             + np.arange(self.child_start[-1])]]
        # Each node's parent arcs, one place per entry of `children` that
        # holds the node: slices of one column of places sorted by child.
        self.arity = count.astype(np.min_scalar_type(count.max()))
        self.fan = np.repeat(np.arange(len(self.decl), dtype=np.min_scalar_type(len(self.decl))),
                             count)[np.argsort(self.children, kind="stable")]
        self.fan_start = np.concatenate(
            ([0], np.cumsum(np.bincount(self.children, minlength=len(node_at)))))
        leaves = np.flatnonzero(template.kinds == KINDS.index(NodeKind.LEAF))
        at = pos_of[leaves]
        self.fan_out = {lid: self.fan[start:stop] for lid, start, stop in zip(
            template.ids[leaves].tolist(), self.fan_start[at].tolist(),
            self.fan_start[at + 1].tolist())}
        self.scale = math.lcm(*set(template.weight_den.tolist()))
        self.weights = (template.weight_num[self.decl].astype(object)
                        * (self.scale // template.weight_den[self.decl].astype(object)))
        self.leaf_facts: tuple[tuple[int, Fact], ...] = tuple(_leaf_facts(template))

    def price(self, true_leaves: Collection[int]) -> Priced:
        """The enabled places, the cheapest arcs and the arc totals when
        exactly `true_leaves`, ids of leaves, hold.

        The true leaves' parent arcs, counted once per child, count an arc
        `arity` times when its children all hold: it is enabled, and its
        total is its weight. Then each solved node is taken in position
        order, after all of its children, so its cost is final: it adds
        one to the count of each of its parent arcs, and an arc whose count
        reaches its arity totals its weight plus its children's costs.
        A node keeps the least (total, place) of its complete arcs.
        """
        # The empty first part makes no true leaves count nothing.
        held = np.concatenate([self.arity[:0], *map(self.fan_out.__getitem__, true_leaves)])
        missing = self.arity - np.bincount(held, minlength=len(self.decl))
        ready = np.flatnonzero(missing == 0)
        enabled = ready[np.argsort(self.ids[self.parents[ready]], kind="stable")].tolist()
        best: dict[int, tuple[int, int]] = {}
        totals: dict[int, int] = {}
        queue: list[int] = []  # a heap of the solved nodes' positions not yet taken
        complete = ready.tolist()
        while True:
            for place in complete:
                total = totals[place] = self.weights[place] + sum(
                    best[child][0] for child in
                    self.children[self.child_start[place]:self.child_start[place + 1]].tolist()
                    if child in best)  # a child not in `best` is a true leaf
                parent = int(self.parents[place])
                if parent not in best:
                    heapq.heappush(queue, parent)
                    best[parent] = (total, place)
                elif (total, place) < best[parent]:
                    best[parent] = (total, place)
            if not queue:
                break
            node = heapq.heappop(queue)
            complete = []
            for place in self.fan[self.fan_start[node]:self.fan_start[node + 1]].tolist():
                missing[place] -= 1
                if not missing[place]:
                    complete.append(place)
        return Priced(enabled, best, totals)

    def solution(self, best: dict[int, tuple[int, int]]) -> set[int]:
        """The places of the arcs that `andor.solution_subgraph` picks, read
        from `best` of one `price`: the cheapest arc of each solved node
        reached from the root through cheapest arcs."""
        chosen = set()
        stack = [self.root_pos]
        while stack:
            node = stack.pop()
            if node in best and (place := best[node][1]) not in chosen:
                chosen.add(place)
                stack.extend(self.children[
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
    """One executable option: achieve `node_id` through the arc with id
    `arc_id` at `place` of the newest compiled graph."""

    node_id: int
    label: str
    place: int
    arc_id: int
    actions: tuple[ActionTemplate, ...]

    def key(self) -> tuple[str, tuple[str, ...]]:
        return (self.label, tuple(a.name for a in self.actions))


class GraphNetwork:
    def __init__(self, main_template: GraphTemplate,
                 stage_templates: dict[str, GraphTemplate],
                 actions: dict[str, ActionTemplate],
                 depth_cap: int = DEFAULT_DEPTH_CAP):
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
        self._states: set[tuple] = set()
        self._main: CompiledGraph | None = None
        # The entry last searched and its `CompiledGraph.price`.
        self._pricing: tuple[GraphEntry, Priced] | None = None

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

    def _priced(self) -> Priced:
        """`CompiledGraph.price` of the newest entry, computed once per entry;
        its leaf truths never change."""
        entry = self.latest
        if self._pricing is None or self._pricing[0] is not entry:
            self._pricing = (entry, entry.compiled.price(entry.true_leaves))
        return self._pricing[1]

    # -- candidate enumeration and selection --------------------------------

    def frontier(self, facts: frozenset[Fact], world_sig: Signature) -> list[Candidate]:
        """Executable candidates of the newest graph, by node id then arc id."""
        if not self.entries:
            raise NetworkError("network not bootstrapped")
        entry = self.latest
        compiled = entry.compiled
        out = []
        for place in self._priced().enabled:
            names = compiled.template.actions[compiled.decl[place]]
            label = compiled.labels[compiled.parents[place]]
            if (label, names, world_sig) in self.suppressed:
                continue
            actions = tuple(self.actions[name] for name in names)
            if not chain_applicable(facts, actions):
                continue
            out.append(Candidate(int(compiled.ids[compiled.parents[place]]), label, place,
                                 int(compiled.arc_ids[place]), actions))
        return out

    def select(self, facts: frozenset[Fact], world_sig: Signature) -> Candidate | None:
        """Pick the next candidate to execute, or None when none remain."""
        candidates = self.frontier(facts, world_sig)
        if not candidates:
            return None
        _, best, totals = self._priced()
        chosen = self.latest.compiled.solution(best)
        on_solution = [c for c in candidates if c.place in chosen]
        # An unsolved arc has no total and comes last; ties go to the arc
        # id, unique in a template.
        return min(on_solution or candidates,
                   key=lambda c: (totals.get(c.place, math.inf), c.arc_id))

    def suppress(self, candidate: Candidate, world_sig: Signature):
        label, names = candidate.key()
        self.suppressed.add((label, names, world_sig))

    # -- expansion -----------------------------------------------------------

    def expand(self, reason: ExpandReason, facts: frozenset[Fact], world_sig: Signature,
               obstructor_ids: tuple[str, ...] = ()) -> GraphEntry:
        """Append the next graph; how it is built depends on the reason.

        Stage completion and an exhausted frontier re-instantiate the main
        template against the current facts, in the world `world_sig`. A
        geometric dead end records what obstructs what as network
        knowledge and composes the relocation stages of the reported
        obstructors into one graph. The run's future from a new graph
        depends only on its stages (none for the main graph), the world
        (its signature: the facts and the rounded poses), the
        suppressions and the knowledge, so an expansion to a state of
        those four seen before is a loop and raises `ExpansionCycle`,
        before either graph is built.
        """
        if len(self.entries) >= self.depth_cap:
            raise DepthLimitExceeded(len(self.entries), self.depth_cap)
        stages = []
        if reason is ExpandReason.MOTION_FAILURE:
            stages = self.relocation_stages(obstructor_ids)
            if not stages:
                raise UnknownStage(
                    "no relocation stage for any of: " + ", ".join(obstructor_ids))
            for oid, _ in stages:
                self.knowledge.add(Fact(OBSTRUCTION_PREDICATE, (oid,)))
        state = (tuple(oid for oid, _ in stages), world_sig, frozenset(self.suppressed),
                 frozenset(self.knowledge))
        if state in self._states:
            raise ExpansionCycle("graph of the same stages instantiated twice with the "
                                 "same world, suppressions and knowledge")
        self._states.add(state)
        if stages:
            compiled = CompiledGraph(compose_rearrangement(stages))
            return self._instantiate(compiled, "rearrangement", facts)
        return self._instantiate_main(facts)

    def relocation_stages(self, obstructor_ids: Iterable[str]
                          ) -> list[tuple[str, GraphTemplate]]:
        """The relocation stage `clear_<id>` of each obstructor that has one,
        in the given order."""
        return [(oid, stage) for oid in obstructor_ids
                if (stage := self.stage_templates.get(f"clear_{oid}")) is not None]


def compose_rearrangement(stages: list[tuple[str, GraphTemplate]]) -> GraphTemplate:
    """Merge per-obstructor stage templates under one fresh root.

    Every stage keeps its internal structure; its root is demoted to an
    internal node and gains one extra child: a knowledge leaf stating the
    obstruction it answers. The composite root requires all stage roots
    at once, mirroring that feasibility returns only when every reported
    obstruction is gone.
    """
    graph = GraphBuilder()
    graph.node(1, NodeKind.ROOT, "obstructions cleared")
    graph.node(2, NodeKind.FAILURE, "rearrangement impossible")
    ids = itertools.count(3)
    arc_ids = itertools.count(2)
    stage_roots = []
    for oid, template in stages:
        root, failure = template.root, template.failure
        nodes, arcs = template.rows()
        remap = {failure: 2}
        for nid, kind, label in nodes:
            if nid != failure:
                remap[nid] = next(ids)
                graph.node(remap[nid], NodeKind.INTERNAL if nid == root else kind, label)
        knowledge_leaf = next(ids)
        graph.node(knowledge_leaf, NodeKind.LEAF, Fact(OBSTRUCTION_PREDICATE, (oid,)).text())
        for _, parent, children, weight, actions in arcs:
            children = [remap[c] for c in children]
            if parent == root:
                children.append(knowledge_leaf)
            graph.arc(next(arc_ids), remap[parent], children, weight.numerator,
                      weight.denominator, actions)
        stage_roots.append(remap[root])
    graph.arc(1, 1, stage_roots, 0)
    return graph.template()
