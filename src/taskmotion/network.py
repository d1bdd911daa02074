"""Network of task graphs that grows while the task is being solved.

One graph describes one decision stage. The first graph is instantiated
from the scenario's main template; every executed step, every geometric
dead end, and every exhausted frontier appends a further graph instead of
mutating an existing one. The network therefore records the full history
of the run, and its length is the reported search depth.

Each template is validated and compiled once into a `CompiledGraph` that
every graph instantiated from it shares: the main template on first use,
a composed rearrangement template when it is composed. A `GraphEntry`
holds only what differs between instantiations, its leaf truths and its
achieved nodes.

Candidates are drawn from the newest graph only. A node is a candidate
when it is not yet achieved, at least one of its incoming arcs has all
children achieved, the arc's actions are symbolically applicable, and the
combination has not been suppressed in the current world. Selection
prefers arcs on the minimal-cost solution of the graph; when the root is
currently unsolvable it falls back to the cheapest applicable arc with
the lowest arc id.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Collection

from .andor import (  # noqa: F401 - see the note below
    INF,
    AndOrGraph,
    ArcDecl,
    GraphTemplate,
    HyperArc,
    NodeDecl,
    NodeKind,
    augment,
    build_graph,
    children_first_order,
    copy_graph,
    node_cost,
    set_leaf_truth,
    solution_subgraph,
    solved,
    to_dot,
)
from .domain import ActionTemplate, Fact, chain_applicable

# `solved`, `node_cost` and `solution_subgraph` are the from-scratch
# pricing of `andor`, which the tests keep as the reference for
# `CompiledGraph`. They stay bound here because the layer trace in
# perfbench/tracer.py wraps the network's pricing calls under these names.


class NetworkError(Exception):
    pass


class DepthLimitExceeded(NetworkError):
    """The network was asked to grow beyond its configured depth cap."""

    def __init__(self, depth: int, cap: int):
        self.depth = depth
        self.cap = cap
        super().__init__(f"network depth {depth} exceeds cap {cap}")


class ExpansionCycle(NetworkError):
    """The same expansion was requested twice with nothing changed."""


class UnknownStage(NetworkError):
    pass


class ExpandReason(Enum):
    STAGE_COMPLETE = "stage_complete"
    MOTION_FAILURE = "motion_failure"
    NO_FEASIBLE_STATE = "no_feasible_state"


OBSTRUCTION_PREDICATE = "obstructs"

_ARC_ORDER = attrgetter("parent", "id")


class CompiledGraph:
    """A validated graph, flattened once for repeated pricing.

    Arc weights are scaled to integers by the least common multiple of
    their denominators, so costs are exact integers (or INF) that order
    and tie exactly like the rational costs of `andor`; a cost divided by
    `scale` is the rational one. The graph itself is shared by every
    entry and never mutated: its leaves all stay false.
    """

    def __init__(self, graph: AndOrGraph):
        self.graph = graph
        self.scale = math.lcm(*(arc.weight.denominator for arc in graph.arcs))
        self.weight = {arc.id: arc.weight.numerator * (self.scale // arc.weight.denominator)
                       for arc in graph.arcs}
        # Root and internal nodes children first, each with its arcs in id
        # order; leaves are priced from their truth, failure stays INF.
        self.order = tuple(
            (nid, tuple((arc, self.weight[arc.id]) for arc in graph.arcs_into(nid)))
            for nid in children_first_order(graph)
            if graph.nodes[nid].kind in (NodeKind.ROOT, NodeKind.INTERNAL))
        # Every arc under its first child: an arc whose children are all
        # achieved is found exactly once by looking up the achieved nodes.
        self.arcs_by_first_child: dict[int, list[HyperArc]] = {}
        for arc in graph.arcs:
            self.arcs_by_first_child.setdefault(arc.children[0], []).append(arc)
        self.leaf_facts: tuple[tuple[int, Fact], ...] = tuple(_leaf_facts(graph))

    def price(self, true_leaves: Collection[int]) -> tuple[dict[int, float], dict[int, HyperArc]]:
        """Scaled cost (an integer, or INF when unsolved) of every node and
        the cheapest arc of every solved non-leaf node, ties to the lowest
        arc id, when exactly `true_leaves` hold."""
        cost: dict[int, float] = dict.fromkeys(self.graph.nodes, INF)
        cost.update(dict.fromkeys(true_leaves, 0))
        choice: dict[int, HyperArc] = {}
        lookup = cost.__getitem__
        for nid, arcs in self.order:
            best = INF
            for arc, weight in arcs:
                total = sum(map(lookup, arc.children), weight)
                if total < best:
                    best = total
                    choice[nid] = arc
            cost[nid] = best
        return cost, choice

    def solution(self, cost: dict[int, float],
                 choice: dict[int, HyperArc]) -> dict[int, HyperArc]:
        """The arcs `andor.solution_subgraph` picks, from one `price` result."""
        if cost[self.graph.root] == INF:
            return {}
        chosen: dict[int, HyperArc] = {}
        stack = [self.graph.root]
        while stack:
            nid = stack.pop()
            if nid in chosen or nid not in choice:
                continue
            chosen[nid] = choice[nid]
            stack.extend(choice[nid].children)
        return chosen


def _leaf_facts(graph: AndOrGraph):
    for leaf in graph.leaves():
        try:
            yield leaf.id, Fact.parse(leaf.label)
        except ValueError:
            continue  # an empty label states no fact; the leaf stays false


@dataclass
class GraphEntry:
    compiled: CompiledGraph
    kind: str  # "main" | "rearrangement"
    true_leaves: frozenset[int]
    achieved: set[int] = field(default_factory=set)

    def graph(self) -> AndOrGraph:
        """A fresh copy of this entry's graph with its leaf truths set."""
        graph = copy_graph(self.compiled.graph)
        set_leaf_truth(graph, dict.fromkeys(self.true_leaves, True))
        return graph

    def to_dot(self, title: str) -> str:
        """DOT rendering of this entry's graph with the virtual node."""
        return to_dot(augment(self.graph()), title=title)


@dataclass(frozen=True)
class Candidate:
    """One executable option: achieve `node_id` through `arc`."""

    graph_index: int
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
        self.main_template = main_template
        self.stage_templates = dict(stage_templates)
        self.actions = dict(actions)
        self.depth_cap = depth_cap
        self.entries: list[GraphEntry] = []
        self.knowledge: set[Fact] = set()
        self.suppressed: set[tuple[str, tuple[str, ...], str]] = set()
        self._expansion_seen: set[tuple] = set()
        self._main: CompiledGraph | None = None
        # (entry, costs, cheapest arcs) of the entry last searched.
        self._pricing: tuple[GraphEntry, dict, dict] | None = None

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
        # Compiled on first use and kept for the network's life: the main
        # template never changes, and hashing a large template to look it
        # up would cost more than building it.
        if self._main is None:
            self._main = CompiledGraph(build_graph(self.main_template))
        return self._instantiate(self._main, "main", facts)

    def _instantiate(self, compiled: CompiledGraph, kind: str,
                     facts: frozenset[Fact]) -> GraphEntry:
        known = facts | self.knowledge
        true_leaves = frozenset(lid for lid, fact in compiled.leaf_facts if fact in known)
        entry = GraphEntry(compiled, kind, true_leaves, set(true_leaves))
        self.entries.append(entry)
        return entry

    def _priced(self) -> tuple[dict[int, float], dict[int, HyperArc]]:
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
        achieved = entry.achieved
        nodes = entry.compiled.graph.nodes
        by_first_child = entry.compiled.arcs_by_first_child
        index = len(self.entries) - 1
        reached = [arc for nid in achieved for arc in by_first_child.get(nid, ())]
        reached.sort(key=_ARC_ORDER)
        out = []
        for arc in reached:
            node = nodes[arc.parent]
            if (arc.parent in achieved or node.kind is NodeKind.FAILURE
                    or not achieved.issuperset(arc.children)):
                continue
            actions = tuple(self.actions[name] for name in arc.actions)
            candidate = Candidate(index, arc.parent, node.label, arc, actions)
            label, names = candidate.key()
            if (label, names, world_sig) in self.suppressed:
                continue
            if not chain_applicable(facts, actions):
                continue
            out.append(candidate)
        return out

    def select(self, facts: frozenset[Fact], world_sig: str) -> Candidate | None:
        """Pick the next candidate to execute, or None when none remain."""
        candidates = self.frontier(facts, world_sig)
        if not candidates:
            return None
        compiled = self.latest.compiled
        cost, choice = self._priced()
        chosen = compiled.solution(cost, choice)
        on_solution = [c for c in candidates if chosen.get(c.node_id) is c.arc]
        if on_solution:
            candidates = on_solution

        def sort_key(c: Candidate):
            est = sum(map(cost.__getitem__, c.arc.children), compiled.weight[c.arc.id])
            return (est == INF, est if est != INF else 0, c.arc.id, c.node_id)

        return min(candidates, key=sort_key)

    def mark_executed(self, candidate: Candidate):
        self.entries[candidate.graph_index].achieved.add(candidate.node_id)

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
        if len(self.entries) > self.depth_cap:
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

    def _expand_rearrangement(self, facts: frozenset[Fact],
                              obstructor_ids: tuple[str, ...]) -> GraphEntry:
        stages = [(oid, self.stage_templates[f"clear_{oid}"])
                  for oid in obstructor_ids if f"clear_{oid}" in self.stage_templates]
        if not stages:
            raise UnknownStage(
                "no relocation stage for any of: " + ", ".join(obstructor_ids))
        for oid, _ in stages:
            self.knowledge.add(Fact(OBSTRUCTION_PREDICATE, (oid,)))
        compiled = CompiledGraph(build_graph(compose_rearrangement(stages)))
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
    arcs: list[ArcDecl] = []
    ids = itertools.count(3)
    arc_ids = itertools.count(2)
    stage_roots = []
    for oid, template in stages:
        remap: dict[int, int] = {}
        for decl in sorted(template.nodes, key=lambda d: d.id):
            if decl.id == template.failure:
                remap[decl.id] = 2
                continue
            new_id = next(ids)
            remap[decl.id] = new_id
            kind = NodeKind.INTERNAL if decl.id == template.root else decl.kind
            nodes.append(NodeDecl(new_id, kind, decl.label))
        knowledge_leaf = next(ids)
        nodes.append(NodeDecl(knowledge_leaf, NodeKind.LEAF,
                              Fact(OBSTRUCTION_PREDICATE, (oid,)).text()))
        for arc in sorted(template.arcs, key=lambda a: a.id):
            children = tuple(remap[c] for c in arc.children)
            if arc.parent == template.root:
                children = children + (knowledge_leaf,)
            arcs.append(ArcDecl(next(arc_ids), remap[arc.parent], children,
                                arc.weight, arc.actions))
        stage_roots.append(remap[template.root])
    arcs.insert(0, ArcDecl(1, 1, tuple(stage_roots), Fraction(0), ()))
    return GraphTemplate(tuple(nodes), tuple(arcs), 1, 2)

