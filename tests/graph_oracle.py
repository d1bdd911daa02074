"""The object validator that `andor` once ran, kept as the reference for
the column pass of `GraphTemplate.checked`.

It reads a template's `NodeDecl`s and `HyperArc`s one at a time into
Python dicts and runs Kahn's algorithm node by node.
"""

from __future__ import annotations

from typing import Mapping

from taskmotion.andor import (
    AndOrGraph,
    CycleDetected,
    DanglingReference,
    DuplicateNodeId,
    GraphTemplate,
    HyperArc,
    InvalidArc,
    MissingFailure,
    MissingRoot,
    Node,
    NodeKind,
    UnreachableRoot,
)


def oracle_build_graph(template: GraphTemplate) -> AndOrGraph:
    """Validate a template declaration by declaration and assemble its graph.

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
