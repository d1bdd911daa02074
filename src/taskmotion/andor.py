"""AND/OR graphs with hyper-arcs, min-cost evaluation, and augmentation.

A graph is a set of nodes plus hyper-arcs. Each hyper-arc connects one
parent to an AND-set of children; alternative arcs into the same parent
are the OR branches. Leaves carry truth values assigned from outside;
everything else derives solvedness and cost bottom-up. Costs are exact
rationals so equal-cost alternatives stay equal under rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Union

INF = math.inf

Cost = Union[Fraction, float]


class GraphError(Exception):
    """Base class; `element` names the offending node or arc."""

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


def as_weight(value) -> Fraction:
    """Normalize arc weights to exact rationals."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"unsupported weight {value!r}")


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
    actions: tuple[str, ...] = ()
    weight: Fraction = Fraction(1)


@dataclass(frozen=True)
class NodeDecl:
    id: int
    kind: NodeKind
    label: str


@dataclass(frozen=True)
class ArcDecl:
    id: int
    parent: int
    children: tuple[int, ...]
    weight: Fraction = Fraction(1)
    actions: tuple[str, ...] = ()


@dataclass(frozen=True)
class GraphTemplate:
    """Declarative graph description; `build_graph` validates it.

    `graph` is built on first access and kept, so a template is validated
    once. It is shared and never mutated: truths and costs go on a
    `copy_graph`. `dataclasses.replace` makes a template validated afresh.
    """

    nodes: tuple[NodeDecl, ...]
    arcs: tuple[ArcDecl, ...]
    root: int
    failure: int

    @cached_property
    def graph(self) -> AndOrGraph:
        return build_graph(self)


@dataclass
class AndOrGraph:
    nodes: dict[int, Node] = field(default_factory=dict)
    arcs: list[HyperArc] = field(default_factory=list)
    root: int = -1
    failure: int = -1
    _arcs_by_parent: dict[int, list[HyperArc]] = field(default_factory=dict, repr=False)
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
    """Validate a template and assemble the graph.

    Rejects duplicate ids, dangling references, cyclic parent-child
    structure, arcs into leaves, missing root/failure designations, and
    roots no leaf can reach.
    """
    nodes: dict[int, Node] = {}
    for decl in template.nodes:
        if decl.id in nodes:
            raise DuplicateNodeId(f"node id {decl.id} declared twice", decl.id)
        if decl.kind is NodeKind.VIRTUAL:
            raise InvalidArc(f"node {decl.id}: virtual nodes appear only via augment", decl.id)
        nodes[decl.id] = Node(decl.id, decl.label, decl.kind)

    if template.root not in nodes:
        raise MissingRoot(f"root id {template.root} not declared", template.root)
    if nodes[template.root].kind is not NodeKind.ROOT:
        raise MissingRoot(f"node {template.root} is not of kind root", template.root)
    if template.failure not in nodes:
        raise MissingFailure(f"failure id {template.failure} not declared", template.failure)
    if nodes[template.failure].kind is not NodeKind.FAILURE:
        raise MissingFailure(f"node {template.failure} is not of kind failure", template.failure)
    root_count = sum(1 for n in nodes.values() if n.kind is NodeKind.ROOT)
    fail_count = sum(1 for n in nodes.values() if n.kind is NodeKind.FAILURE)
    if root_count != 1:
        raise MissingRoot(f"expected exactly one root node, found {root_count}")
    if fail_count != 1:
        raise MissingFailure(f"expected exactly one failure node, found {fail_count}")

    arcs: list[HyperArc] = []
    seen_arc_ids: set[int] = set()
    for decl in template.arcs:
        if decl.id in seen_arc_ids:
            raise DuplicateNodeId(f"arc id {decl.id} declared twice", decl.id)
        seen_arc_ids.add(decl.id)
        if decl.parent not in nodes:
            raise DanglingReference(f"arc {decl.id}: unknown parent {decl.parent}", decl.id)
        if nodes[decl.parent].kind is NodeKind.LEAF:
            raise InvalidArc(f"arc {decl.id}: parent {decl.parent} is a leaf", decl.id)
        if not decl.children:
            raise InvalidArc(f"arc {decl.id}: empty child set", decl.id)
        for child in decl.children:
            if child not in nodes:
                raise DanglingReference(f"arc {decl.id}: unknown child {child}", decl.id)
        if decl.weight < 0:
            raise InvalidArc(f"arc {decl.id}: negative weight", decl.id)
        arcs.append(HyperArc(decl.id, decl.parent, tuple(decl.children),
                             tuple(decl.actions), as_weight(decl.weight)))

    graph = AndOrGraph(nodes=nodes, arcs=arcs, root=template.root, failure=template.failure)
    by_parent: dict[int, list[HyperArc]] = {}
    for arc in arcs:
        by_parent.setdefault(arc.parent, []).append(arc)
    for lst in by_parent.values():
        lst.sort(key=lambda a: a.id)
    graph._arcs_by_parent = by_parent

    _check_acyclic(graph)
    _check_root_reaches_leaf(graph)
    graph._dirty = True
    return graph


def _check_acyclic(graph: AndOrGraph) -> None:
    # Iterative DFS over parent -> children; a gray node seen again is a cycle.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in graph.nodes}
    for start in graph.nodes:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(_child_ids(graph, start)))]
        color[start] = GRAY
        while stack:
            nid, it = stack[-1]
            advanced = False
            for child in it:
                if color[child] == GRAY:
                    raise CycleDetected(f"cycle through node {child}", child)
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, iter(_child_ids(graph, child))))
                    advanced = True
                    break
            if not advanced:
                color[nid] = BLACK
                stack.pop()


def _child_ids(graph: AndOrGraph, node_id: int) -> list[int]:
    out = []
    for arc in graph.arcs_into(node_id):
        out.extend(arc.children)
    return out


def _check_root_reaches_leaf(graph: AndOrGraph) -> None:
    seen = {graph.root}
    frontier = [graph.root]
    while frontier:
        nid = frontier.pop()
        if graph.nodes[nid].kind is NodeKind.LEAF:
            return
        for child in _child_ids(graph, nid):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    raise UnreachableRoot("no leaf reaches the root through any arc chain", graph.root)


def copy_graph(graph: AndOrGraph) -> AndOrGraph:
    """A copy with nodes of its own; the immutable arcs are shared."""
    return AndOrGraph({nid: replace(node) for nid, node in graph.nodes.items()},
                      graph.arcs, graph.root, graph.failure, graph._arcs_by_parent)


def set_leaf_truth(graph: AndOrGraph, truths: Mapping[int, bool]) -> None:
    """Assign truth values to leaves; any other node id is rejected."""
    for nid, value in truths.items():
        node = graph.nodes.get(nid)
        if node is None:
            raise UnknownNode(f"node {nid} not in graph", nid)
        if node.kind is not NodeKind.LEAF:
            raise NotALeaf(f"node {nid} ({node.kind.value}) is not a leaf", nid)
        node.truth = bool(value)
    graph._dirty = True


def _refresh(graph: AndOrGraph) -> None:
    """Recompute solved/cost for every node, bottom-up.

    Results are as-if recomputed from scratch after every mutation; the
    dirty flag only avoids redundant passes between mutations.
    """
    if not graph._dirty:
        return
    order = children_first_order(graph)
    for nid in order:
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


def children_first_order(graph: AndOrGraph) -> list[int]:
    """Every node id, each after all of its children."""
    order: list[int] = []
    state: dict[int, int] = {}
    for start in graph.nodes:
        if state.get(start):
            continue
        stack = [(start, False)]
        while stack:
            nid, processed = stack.pop()
            if processed:
                order.append(nid)
                state[nid] = 2
                continue
            if state.get(nid):
                continue
            state[nid] = 1
            stack.append((nid, True))
            for child in _child_ids(graph, nid):
                if not state.get(child):
                    stack.append((child, False))
    return order


def solved(graph: AndOrGraph, node_id: int) -> bool:
    """True iff the node is derivable from true leaves."""
    if node_id not in graph.nodes:
        raise UnknownNode(f"node {node_id} not in graph", node_id)
    _refresh(graph)
    return graph.nodes[node_id].solved


def node_cost(graph: AndOrGraph, node_id: int) -> Cost:
    """Minimal derivation cost; +infinity when unsolvable."""
    if node_id not in graph.nodes:
        raise UnknownNode(f"node {node_id} not in graph", node_id)
    _refresh(graph)
    return graph.nodes[node_id].cost


def best_arc(graph: AndOrGraph, node_id: int) -> HyperArc | None:
    """Minimum-cost arc into a node; ties go to the lowest arc id.

    Arcs are already ordered by id, so the strict `<` keeps the first
    minimum encountered.
    """
    if node_id not in graph.nodes:
        raise UnknownNode(f"node {node_id} not in graph", node_id)
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
        raise AlreadyAugmented("graph already carries a virtual node", graph.virtual_node.id)
    virtual_id = max(graph.nodes) + 1 if graph.nodes else 0
    next_arc_id = max((a.id for a in graph.arcs), default=-1) + 1
    virtual = Node(virtual_id, "virtual", NodeKind.VIRTUAL)
    arcs = (
        HyperArc(next_arc_id, virtual_id, (graph.failure,), (), Fraction(0)),
        HyperArc(next_arc_id + 1, virtual_id, (graph.root,), (), Fraction(0)),
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
