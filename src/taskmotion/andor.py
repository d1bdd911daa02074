"""AND/OR graphs with hyper-arcs, min-cost evaluation, and augmentation.

A graph is a set of nodes plus hyper-arcs. Each hyper-arc connects one
parent to an AND-set of children; alternative arcs into the same parent
are the OR branches. Leaves carry truth values assigned from outside;
everything else derives solvedness and cost bottom-up. Costs are exact
rationals so equal-cost alternatives stay equal under rescaling.

A template declares nodes and arcs once; `build_graph` validates it in
one topological pass (Kahn, "Topological sorting of large networks",
CACM 5(11), 1962), which finds cycles, checks that a leaf reaches the
root, and gives every node its height. The root and the failure node are
the one node of each kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Union

INF = math.inf

Cost = Union[Fraction, float]


class GraphError(Exception):
    """Base class; `element` is the `("node" | "arc", id)` at fault, or None."""

    def __init__(self, message: str, element=None):
        self.element = element
        super().__init__(message)


class DuplicateNodeId(GraphError):
    pass


class DanglingReference(GraphError):
    pass


class CycleDetected(GraphError):
    pass


class MissingRoot(GraphError):
    pass


class MissingFailure(GraphError):
    pass


class InvalidArc(GraphError):
    pass


class UnreachableRoot(GraphError):
    pass


class UnknownNode(GraphError):
    pass


class NotALeaf(GraphError):
    pass


class AlreadyAugmented(GraphError):
    pass


class NodeKind(Enum):
    LEAF = "leaf"
    INTERNAL = "internal"
    ROOT = "root"
    FAILURE = "failure"
    VIRTUAL = "virtual"


@dataclass
class Node:
    id: int
    label: str
    kind: NodeKind
    truth: bool = False
    solved: bool = False
    cost: Cost = INF


@dataclass(frozen=True)
class HyperArc:
    id: int
    parent: int
    children: tuple[int, ...]
    weight: Fraction = Fraction(1)
    actions: tuple[str, ...] = ()


@dataclass(frozen=True)
class NodeDecl:
    id: int
    kind: NodeKind
    label: str


@dataclass(frozen=True)
class GraphTemplate:
    """Declarative graph description; `build_graph` validates it.

    `graph` is built on first access and kept, so a template is validated
    once. It is shared and never mutated: truths and costs go on a
    `copy_graph`. `dataclasses.replace` makes a template validated afresh.
    """

    nodes: tuple[NodeDecl, ...]
    arcs: tuple[HyperArc, ...]

    @cached_property
    def graph(self) -> AndOrGraph:
        return build_graph(self)


@dataclass
class AndOrGraph:
    """`height` is 0 for a node that is not priced (a leaf, the failure
    node), else one more than its highest child; a root or internal node
    without arcs also has height 0."""

    nodes: dict[int, Node] = field(default_factory=dict)
    arcs: tuple[HyperArc, ...] = ()
    root: int = -1
    failure: int = -1
    _arcs_by_parent: dict[int, list[HyperArc]] = field(default_factory=dict, repr=False)
    height: dict[int, int] = field(default_factory=dict, repr=False)
    _dirty: bool = field(default=True, repr=False)

    def arcs_into(self, node_id: int) -> list[HyperArc]:
        return self._arcs_by_parent.get(node_id, [])

    def leaves(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind is NodeKind.LEAF]


@dataclass
class AugmentedGraph:
    """Base graph plus the virtual node and its two virtual arcs.

    The base graph is shared, not copied, and is never mutated by
    augmentation; the virtual structure lives only here.
    """

    base: AndOrGraph
    virtual_node: Node
    virtual_arcs: tuple[HyperArc, ...]


def build_graph(template: GraphTemplate) -> AndOrGraph:
    """Validate a template and assemble its graph from the template's own arcs.

    Rejects duplicate ids, dangling references, cyclic parent-child
    structure, arcs into leaves, anything but one root and one failure
    node, and roots no leaf can reach. An error's `element` is the
    `("node" | "arc", id)` it is about, or None.
    """
    nodes: dict[int, Node] = {}
    for decl in template.nodes:
        if decl.id in nodes:
            raise DuplicateNodeId(f"node id {decl.id} declared twice", ("node", decl.id))
        if decl.kind is NodeKind.VIRTUAL:
            raise InvalidArc(f"node {decl.id}: virtual nodes appear only via augment",
                             ("node", decl.id))
        nodes[decl.id] = Node(decl.id, decl.label, decl.kind)
    roots = [nid for nid, node in nodes.items() if node.kind is NodeKind.ROOT]
    failures = [nid for nid, node in nodes.items() if node.kind is NodeKind.FAILURE]
    if len(roots) != 1:
        raise MissingRoot(f"expected exactly one root node, found {len(roots)}")
    if len(failures) != 1:
        raise MissingFailure(f"expected exactly one failure node, found {len(failures)}")

    by_parent: dict[int, list[HyperArc]] = {}
    seen_arc_ids: set[int] = set()
    for arc in template.arcs:
        element = ("arc", arc.id)
        if arc.id in seen_arc_ids:
            raise DuplicateNodeId(f"arc id {arc.id} declared twice", element)
        seen_arc_ids.add(arc.id)
        if arc.parent not in nodes:
            raise DanglingReference(f"arc {arc.id}: unknown parent {arc.parent}", element)
        if nodes[arc.parent].kind is NodeKind.LEAF:
            raise InvalidArc(f"arc {arc.id}: parent {arc.parent} is a leaf", element)
        if not arc.children:
            raise InvalidArc(f"arc {arc.id}: empty child set", element)
        for child in arc.children:
            if child not in nodes:
                raise DanglingReference(f"arc {arc.id}: unknown child {child}", element)
        if arc.weight < 0:
            raise InvalidArc(f"arc {arc.id}: negative weight", element)
        by_parent.setdefault(arc.parent, []).append(arc)
    for lst in by_parent.values():
        lst.sort(key=lambda a: a.id)

    return AndOrGraph(nodes, template.arcs, roots[0], failures[0], by_parent,
                      _topological_height(nodes, by_parent, roots[0]))


_PRICED = (NodeKind.ROOT, NodeKind.INTERNAL)


def _topological_height(nodes: Mapping[int, Node], by_parent: Mapping[int, list[HyperArc]],
                        root: int) -> dict[int, int]:
    """Every node's height, by Kahn's algorithm: a node is processed once
    all of its children are, leaves first, lifts each root or internal
    parent above itself, and passes on whether a leaf reaches it. Nodes
    left over lie on or above a cycle; the walk from the smallest of them
    along left-over children repeats a node of a cycle, which
    `CycleDetected` names. Then a root no leaf reaches is `UnreachableRoot`."""
    pending = dict.fromkeys(nodes, 0)
    parents: dict[int, list[int]] = {}
    for parent, arcs in by_parent.items():
        for arc in arcs:
            pending[parent] += len(arc.children)
            for child in arc.children:
                parents.setdefault(child, []).append(parent)
    height = dict.fromkeys(nodes, 0)
    reached = {nid for nid, node in nodes.items() if node.kind is NodeKind.LEAF}
    ready = [nid for nid, count in pending.items() if count == 0]
    for nid in ready:  # grows while it is walked
        lift = height[nid] + 1
        above = parents.get(nid, ())
        if nid in reached:
            reached.update(above)
        for parent in above:
            if nodes[parent].kind in _PRICED and height[parent] < lift:
                height[parent] = lift
            pending[parent] -= 1
            if pending[parent] == 0:
                ready.append(parent)
    if len(ready) < len(nodes):
        left = {nid for nid, count in pending.items() if count}
        nid, seen = min(left), set()
        while nid not in seen:
            seen.add(nid)
            nid = next(c for arc in by_parent[nid] for c in arc.children if c in left)
        raise CycleDetected(f"cycle through node {nid}", ("node", nid))
    if root not in reached:
        raise UnreachableRoot("no leaf reaches the root through any arc chain",
                              ("node", root))
    return height


def copy_graph(graph: AndOrGraph) -> AndOrGraph:
    """A copy with nodes of its own; the immutable arcs are shared."""
    return AndOrGraph({nid: replace(node) for nid, node in graph.nodes.items()},
                      graph.arcs, graph.root, graph.failure, graph._arcs_by_parent,
                      graph.height)


def set_leaf_truth(graph: AndOrGraph, truths: Mapping[int, bool]) -> None:
    """Assign truth values to leaves; any other node id is rejected."""
    for nid, value in truths.items():
        node = graph.nodes.get(nid)
        if node is None:
            raise UnknownNode(f"node {nid} not in graph", ("node", nid))
        if node.kind is not NodeKind.LEAF:
            raise NotALeaf(f"node {nid} ({node.kind.value}) is not a leaf", ("node", nid))
        node.truth = bool(value)
    graph._dirty = True


def _refresh(graph: AndOrGraph) -> None:
    """Recompute solved/cost for every node, bottom-up.

    Results are as-if recomputed from scratch after every mutation; the
    dirty flag only avoids redundant passes between mutations.
    """
    if not graph._dirty:
        return
    for nid in sorted(graph.nodes, key=graph.height.__getitem__):
        node = graph.nodes[nid]
        if node.kind is NodeKind.LEAF:
            node.solved = node.truth
            node.cost = Fraction(0) if node.truth else INF
            continue
        if node.kind in (NodeKind.FAILURE, NodeKind.VIRTUAL):
            node.solved = False
            node.cost = INF
            continue
        best: Cost = INF
        solved = False
        for arc in graph.arcs_into(nid):
            total: Cost = arc.weight
            ok = True
            for child in arc.children:
                cnode = graph.nodes[child]
                if not cnode.solved:
                    ok = False
                    break
                total = total + cnode.cost
            if ok:
                solved = True
                if total < best:
                    best = total
        node.solved = solved
        node.cost = best
    graph._dirty = False


def solved(graph: AndOrGraph, node_id: int) -> bool:
    """True iff the node is derivable from true leaves."""
    if node_id not in graph.nodes:
        raise UnknownNode(f"node {node_id} not in graph", ("node", node_id))
    _refresh(graph)
    return graph.nodes[node_id].solved


def node_cost(graph: AndOrGraph, node_id: int) -> Cost:
    """Minimal derivation cost; +infinity when unsolvable."""
    if node_id not in graph.nodes:
        raise UnknownNode(f"node {node_id} not in graph", ("node", node_id))
    _refresh(graph)
    return graph.nodes[node_id].cost


def best_arc(graph: AndOrGraph, node_id: int) -> HyperArc | None:
    """Minimum-cost arc into a node; ties go to the lowest arc id.

    Arcs are already ordered by id, so the strict `<` keeps the first
    minimum encountered.
    """
    if node_id not in graph.nodes:
        raise UnknownNode(f"node {node_id} not in graph", ("node", node_id))
    _refresh(graph)
    best: HyperArc | None = None
    best_cost: Cost = INF
    for arc in graph.arcs_into(node_id):
        total: Cost = arc.weight
        ok = True
        for child in arc.children:
            cnode = graph.nodes[child]
            if not cnode.solved:
                ok = False
                break
            total = total + cnode.cost
        if ok and total < best_cost:
            best_cost = total
            best = arc
    return best


def solution_subgraph(graph: AndOrGraph) -> dict[int, HyperArc]:
    """Top-down extraction of the minimal-cost solution from the root.

    Maps each non-leaf node of the solution to its chosen arc. Empty when
    the root is unsolvable. Ties break by lowest arc id, then lowest
    parent node id via the sorted expansion order.
    """
    _refresh(graph)
    if not graph.nodes[graph.root].solved:
        return {}
    chosen: dict[int, HyperArc] = {}
    frontier = [graph.root]
    while frontier:
        frontier.sort(reverse=True)
        nid = frontier.pop()
        if nid in chosen or graph.nodes[nid].kind is NodeKind.LEAF:
            continue
        arc = best_arc(graph, nid)
        if arc is None:
            continue
        chosen[nid] = arc
        for child in arc.children:
            if graph.nodes[child].kind is not NodeKind.LEAF and child not in chosen:
                frontier.append(child)
    return chosen


def augment(graph: AndOrGraph | AugmentedGraph) -> AugmentedGraph:
    """Attach the virtual node, wired from both the failure node and root."""
    if isinstance(graph, AugmentedGraph):
        raise AlreadyAugmented("graph already carries a virtual node",
                               ("node", graph.virtual_node.id))
    virtual_id = max(graph.nodes) + 1 if graph.nodes else 0
    next_arc_id = max((a.id for a in graph.arcs), default=-1) + 1
    virtual = Node(virtual_id, "virtual", NodeKind.VIRTUAL)
    arcs = (
        HyperArc(next_arc_id, virtual_id, (graph.failure,), Fraction(0)),
        HyperArc(next_arc_id + 1, virtual_id, (graph.root,), Fraction(0)),
    )
    return AugmentedGraph(base=graph, virtual_node=virtual, virtual_arcs=arcs)


_DOT_SHAPE = {
    NodeKind.LEAF: "ellipse",
    NodeKind.INTERNAL: "box",
    NodeKind.ROOT: "doubleoctagon",
    NodeKind.FAILURE: "octagon",
    NodeKind.VIRTUAL: "diamond",
}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: AndOrGraph | AugmentedGraph, title: str = "andor") -> str:
    """Deterministic DOT rendering; hyper-arcs render through point junctions."""
    if isinstance(graph, AugmentedGraph):
        base = graph.base
        extra_nodes = [graph.virtual_node]
        extra_arcs = list(graph.virtual_arcs)
    else:
        base = graph
        extra_nodes = []
        extra_arcs = []

    lines = [f'digraph "{_dot_escape(title)}" {{', "  rankdir=BT;",
             '  node [fontname="Helvetica"];']
    all_nodes = sorted(list(base.nodes.values()) + extra_nodes, key=lambda n: n.id)
    for node in all_nodes:
        attrs = [f'label="{_dot_escape(node.label)}"', f"shape={_DOT_SHAPE[node.kind]}"]
        if node.kind is NodeKind.LEAF and node.truth:
            attrs.append('style=filled fillcolor="#c8e6c9"')
        if node.kind is NodeKind.FAILURE:
            attrs.append('style=filled fillcolor="#ffcdd2"')
        if node.kind is NodeKind.VIRTUAL:
            attrs.append("style=dashed")
        lines.append(f'  n{node.id} [{" ".join(attrs)}];')
    for arc in sorted(list(base.arcs) + extra_arcs, key=lambda a: (a.parent, a.id)):
        junction = f"h{arc.id}"
        label_bits = [f"w={arc.weight}"]
        if arc.actions:
            label_bits.append(",".join(arc.actions))
        lines.append(f'  {junction} [shape=point label="" width=0.06];')
        lines.append(f'  {junction} -> n{arc.parent} [label="{_dot_escape(" ".join(label_bits))}"];')
        for child in arc.children:
            lines.append(f"  n{child} -> {junction} [arrowhead=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"
