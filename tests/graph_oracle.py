"""The object forms of a template that `andor` once kept, as the tests'
vocabulary and as references for the column code.

A template is declared here as `NodeDecl`s and `HyperArc`s: `template_of`
writes them through `andor.GraphBuilder`, and `nodes_of`, `arcs_of` and
`arc_of` read them back from the columns in declaration order. Three
references follow: the object validator, which reads the declarations
one at a time into Python dicts and runs Kahn's algorithm node by node,
for the column pass of `GraphTemplate.checked`; and the serialized lines
and the DOT text that `dsl` and `andor` once rendered from the objects,
for the renderings from `GraphTemplate.rows`. Last come the ready arcs,
the enabled arcs and the costs of every node and arc, computed from the
template's columns alone, one height at a time over every child, for the
one pass of `CompiledGraph.price` that prices only the solved part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Collection, Iterable, Mapping

import numpy as np
from taskmotion.andor import (
    KINDS,
    AndOrGraph,
    CycleDetected,
    DanglingReference,
    DuplicateNodeId,
    GraphBuilder,
    GraphTemplate,
    HyperArc,
    InvalidArc,
    MissingFailure,
    MissingRoot,
    Node,
    NodeKind,
    UnreachableRoot,
    _DOT_SHAPE,
    escape_label,
)
from taskmotion.dsl import fmt_weight


@dataclass(frozen=True)
class NodeDecl:
    id: int
    kind: NodeKind
    label: str


def template_of(nodes: Iterable[NodeDecl], arcs: Iterable[HyperArc]) -> GraphTemplate:
    """The template that declares `nodes` and `arcs` in this order."""
    graph = GraphBuilder()
    for decl in nodes:
        graph.node(decl.id, decl.kind, decl.label)
    for arc in arcs:
        graph.arc(arc.id, arc.parent, arc.children, arc.weight.numerator,
                  arc.weight.denominator, arc.actions)
    return graph.template()


def nodes_of(template: GraphTemplate) -> tuple[NodeDecl, ...]:
    """The node declarations of a template, in declaration order."""
    return tuple(map(NodeDecl, template.ids.tolist(),
                     map(KINDS.__getitem__, template.kinds.tolist()), template.labels))


def arc_of(template: GraphTemplate, j: int) -> HyperArc:
    """The arc declared `j`-th."""
    start, stop = template.child_starts[j], template.child_starts[j + 1]
    return HyperArc(int(template.arc_ids[j]), int(template.parents[j]),
                    tuple(template.children[start:stop].tolist()),
                    Fraction(int(template.weight_num[j]), int(template.weight_den[j])),
                    template.actions[j])


def arcs_of(template: GraphTemplate) -> tuple[HyperArc, ...]:
    """The arc declarations of a template, in declaration order."""
    return tuple(arc_of(template, j) for j in range(len(template.arc_ids)))


def by_id(template: GraphTemplate) -> tuple[tuple[NodeDecl, ...], tuple[HyperArc, ...]]:
    """The declarations sorted by id, a repeated id in declaration order."""
    return (tuple(sorted(nodes_of(template), key=attrgetter("id"))),
            tuple(sorted(arcs_of(template), key=attrgetter("id"))))


def oracle_template_lines(template: GraphTemplate, indent: str = "") -> list[str]:
    """The GRAPH lines of a template, rendered from its declaration objects."""
    out = []
    for node in sorted(nodes_of(template), key=lambda n: n.id):
        out.append(f'{indent}node {node.id} {node.kind.value} "{escape_label(node.label)}"')
    for arc in sorted(arcs_of(template), key=lambda a: a.id):
        line = (f"{indent}arc {arc.id} parent {arc.parent} children "
                + " ".join(str(c) for c in arc.children)
                + f" weight {fmt_weight(arc.weight)}")
        if arc.actions:
            line += " actions " + " ".join(arc.actions)
        out.append(line)
    return out


def oracle_to_dot(template: GraphTemplate, title: str = "andor",
                  true_leaves: Collection[int] = frozenset(), virtual: bool = False) -> str:
    """The DOT text of a template, rendered from its declaration objects."""
    nodes = list(nodes_of(template))
    arcs = list(arcs_of(template))
    if virtual:
        virtual_id = max((n.id for n in nodes), default=-1) + 1
        arc_id = max((a.id for a in arcs), default=-1) + 1
        nodes.append(NodeDecl(virtual_id, NodeKind.VIRTUAL, "virtual"))
        arcs += [HyperArc(arc_id, virtual_id, (template.failure,), Fraction(0)),
                 HyperArc(arc_id + 1, virtual_id, (template.root,), Fraction(0))]

    lines = [f'digraph "{escape_label(title)}" {{', "  rankdir=BT;",
             '  node [fontname="Helvetica"];']
    for node in sorted(nodes, key=attrgetter("id")):
        attrs = [f'label="{escape_label(node.label)}"', f"shape={_DOT_SHAPE[node.kind]}"]
        if node.kind is NodeKind.LEAF and node.id in true_leaves:
            attrs.append('style=filled fillcolor="#c8e6c9"')
        if node.kind is NodeKind.FAILURE:
            attrs.append('style=filled fillcolor="#ffcdd2"')
        if node.kind is NodeKind.VIRTUAL:
            attrs.append("style=dashed")
        lines.append(f'  n{node.id} [{" ".join(attrs)}];')
    for arc in sorted(arcs, key=attrgetter("parent", "id")):
        junction = f"h{arc.id}"
        label_bits = [f"w={arc.weight}"]
        if arc.actions:
            label_bits.append(",".join(arc.actions))
        lines.append(f'  {junction} [shape=point label="" width=0.06];')
        lines.append(f'  {junction} -> n{arc.parent} [label="{escape_label(" ".join(label_bits))}"];')
        for child in arc.children:
            lines.append(f"  n{child} -> {junction} [arrowhead=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_build_graph(template: GraphTemplate) -> AndOrGraph:
    """Validate a template declaration by declaration and assemble its graph.

    Rejects duplicate ids, dangling references, cyclic parent-child
    structure, arcs into leaves, anything but one root and one failure
    node, and roots no leaf can reach. An error's `element` is the
    `("node" | "arc", id)` it is about, or None.
    """
    nodes: dict[int, Node] = {}
    for decl in nodes_of(template):
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
    for arc in arcs_of(template):
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

    return AndOrGraph(nodes, arcs_of(template), roots[0], failures[0], by_parent,
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


def oracle_ready(template: GraphTemplate, true_leaves: Collection[int]) -> np.ndarray:
    """Whether each arc's children are all among `true_leaves`, by
    declaration index: one reduction of a holding mask gathered at every
    entry of `children`."""
    holds = np.isin(template.children, np.array(sorted(true_leaves), dtype=object))
    return np.logical_and.reduceat(holds, template.child_starts[:-1])


def oracle_enabled(template: GraphTemplate, true_leaves: Collection[int]) -> list[int]:
    """The ids of the arcs into root or internal nodes whose children all
    hold, by parent id then arc id."""
    priced = np.isin(template.kinds[template.checked.parent],
                     [KINDS.index(NodeKind.ROOT), KINDS.index(NodeKind.INTERNAL)])
    arcs = np.flatnonzero(oracle_ready(template, true_leaves) & priced).tolist()
    return [aid for _, aid in sorted((int(template.parents[j]), int(template.arc_ids[j]))
                                     for j in arcs)]


def oracle_price(template: GraphTemplate, true_leaves: Collection[int]
                 ) -> tuple[int, np.ndarray, np.ndarray]:
    """The scale, every node's cost by declaration index and every arc's
    total by declaration index, when exactly `true_leaves` hold.

    Weights are scaled to Python integers by the least common multiple of
    their denominators; an unsolved node or arc costs `math.inf`. The
    nodes of each height, from `template.checked`, are priced at once,
    from every child cost of their arcs: a gather and a segment sum per
    height. The failure node and nodes without arcs have height 0 and
    stay unsolved, as do false leaves."""
    checked = template.checked
    scale = math.lcm(*set(template.weight_den.tolist()))
    weights = template.weight_num.astype(object) * (scale // template.weight_den.astype(object))
    cost = np.full(len(template.ids), math.inf, dtype=object)
    cost[np.isin(template.ids, np.array(sorted(true_leaves), dtype=object))] = 0
    totals = np.full(len(template.arc_ids), math.inf, dtype=object)
    arity = np.diff(template.child_starts)
    up = checked.height[checked.parent]  # each arc's parent's height
    for height in range(1, int(checked.height.max(initial=0)) + 1):
        arcs = np.flatnonzero(up == height)
        ends = np.cumsum(arity[arcs])
        slots = (np.repeat(template.child_starts[arcs] - ends + arity[arcs], arity[arcs])
                 + np.arange(ends[-1]))
        totals[arcs] = (np.add.reduceat(cost[checked.child[slots]], ends - arity[arcs])
                        + weights[arcs])
        np.minimum.at(cost, checked.parent[arcs], totals[arcs])
    return scale, cost, totals
