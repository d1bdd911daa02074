"""AND/OR graphs with hyper-arcs, min-cost evaluation, and augmentation.

A graph is a set of nodes plus hyper-arcs. Each hyper-arc connects one
parent to an AND-set of children; alternative arcs into the same parent
are the OR branches. Leaves carry truth values assigned from outside;
everything else derives solvedness and cost bottom-up. Costs are exact
rationals so equal-cost alternatives stay equal under rescaling.

A `GraphTemplate` holds a graph's declarations as integer columns: node
ids and kinds, arc ids and parents, child offsets into one flat children
array, and weight numerators and denominators. Validation is one numpy
pass over those columns, ending in a level-by-level topological sort
(Kahn, "Topological sorting of large networks", CACM 5(11), 1962) that
finds cycles, checks that a leaf reaches the root, and gives every node
its height. The root and the failure node are the one node of each kind.
A `GraphBuilder` is the one way to write a template: it collects
declarations in lists and converts them to columns in batches. `rows` is
the one way to read one back, as plain tuples sorted by id, for
serialization, DOT export and equality. Only `build_graph` and `augment`
build objects, the `Node`s and `HyperArc`s of the from-scratch pricing
below.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Collection, Iterable, Mapping, NamedTuple, Union

import numpy as np

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


KINDS = tuple(NodeKind)  # a node's code in a template's `kinds` column indexes this
_CODE = {kind: code for code, kind in enumerate(KINDS)}
_LEAF, _INTERNAL, _ROOT, _FAILURE, _VIRTUAL = (_CODE[kind] for kind in NodeKind)
_PRICED = np.array([kind in (NodeKind.ROOT, NodeKind.INTERNAL) for kind in KINDS])
_INT64 = np.iinfo(np.int64)
_JOINED = 256  # the fewest values read through one join; fewer convert faster one by one


def int_column(values) -> np.ndarray:
    """Integers (or their decimal strings) as an `int64` column, or as Python
    integers in an object column when one does not fit in 64 bits.

    At least `_JOINED` decimal strings are read in one `np.fromstring` over
    their join. It saturates a value out of range to an int64 bound, so a
    column holding one, a short read, or a list that is not all strings
    (which the join rejects) is converted again value by value."""
    if len(values) >= _JOINED:
        try:
            column = np.fromstring(" ".join(values), dtype=np.int64, sep=" ")
            if (len(column) == len(values)
                    and _INT64.min < column.min() and column.max() < _INT64.max):
                return column
        except (TypeError, ValueError):
            pass
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(value) for value in values], dtype=object)


class Checked(NamedTuple):
    """What validation learns about a template, by declaration index: the
    root and the failure node, each node's height (0 for a node that is not
    priced, else one more than its highest child), and the node index of
    each arc's parent and of each entry of `children`."""

    root: int
    failure: int
    height: np.ndarray
    parent: np.ndarray
    child: np.ndarray


@dataclass(frozen=True, eq=False, repr=False)
class GraphTemplate:
    """A graph's declarations as columns, in declaration order.

    Node `i` has id `ids[i]`, kind `KINDS[kinds[i]]` and label `labels[i]`.
    Arc `j` has id `arc_ids[j]` and parent `parents[j]`; its children are
    `children[child_starts[j]:child_starts[j + 1]]`, its weight is
    `weight_num[j] / weight_den[j]` in lowest terms, and its actions are
    `actions[j]`. Integer columns are `int64`, or object columns of Python
    integers when a value does not fit (`int_column`). A `GraphBuilder`
    writes the columns.

    The template is shared and never mutated: its arrays are read-only.
    `checked` validates it on first access and keeps the result; `rows`
    reads the declarations back. Two templates are equal when they declare
    the same nodes and arcs, whatever the order of the declarations; the
    hash reads only the sorted ids, and equality compares the columns in
    id order once the sizes agree, without building rows.
    """

    ids: np.ndarray
    kinds: np.ndarray
    labels: tuple[str, ...]
    arc_ids: np.ndarray
    parents: np.ndarray
    child_starts: np.ndarray
    children: np.ndarray
    weight_num: np.ndarray
    weight_den: np.ndarray
    actions: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        for column in (self.ids, self.kinds, self.arc_ids, self.parents, self.child_starts,
                       self.children, self.weight_num, self.weight_den):
            column.flags.writeable = False

    @cached_property
    def checked(self) -> Checked:
        return _check(self)

    @property
    def root(self) -> int:
        return int(self.ids[self.checked.root])

    @property
    def failure(self) -> int:
        return int(self.ids[self.checked.failure])

    def rows(self) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
        """The node rows `(id, kind, label)` and the arc rows `(id, parent,
        children, weight, actions)`, each sorted by id (a repeated id in
        declaration order)."""
        nodes = zip(self.ids.tolist(), map(KINDS.__getitem__, self.kinds.tolist()),
                    self.labels)
        starts, children = self.child_starts.tolist(), self.children.tolist()
        arcs = zip(self.arc_ids.tolist(), self.parents.tolist(),
                   (tuple(children[start:stop]) for start, stop in zip(starts, starts[1:])),
                   map(Fraction, self.weight_num.tolist(), self.weight_den.tolist()),
                   self.actions)
        return tuple(sorted(nodes, key=itemgetter(0))), tuple(sorted(arcs, key=itemgetter(0)))

    def _sorted_ids(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The node ids and the arc ids, each sorted: equal templates have
        equal ones."""
        return tuple(np.sort(self.ids).tolist()), tuple(np.sort(self.arc_ids).tolist())

    def _id_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The declaration indexes of the nodes and of the arcs, each in id
        order (a repeated id in declaration order), as `rows` sorts them,
        and the index into `children` of each arc's children in that order."""
        nodes = np.argsort(self.ids, kind="stable")
        arcs = np.argsort(self.arc_ids, kind="stable")
        counts = np.diff(self.child_starts)[arcs]
        ends = np.cumsum(counts)
        within = np.arange(len(self.children)) - np.repeat(ends - counts, counts)
        return nodes, arcs, np.repeat(self.child_starts[:-1][arcs], counts) + within

    def __eq__(self, other) -> bool:
        """Whether the rows are equal, read from the columns in id order;
        a weight is in lowest terms, so its two columns compare as the
        fraction does."""
        if not isinstance(other, GraphTemplate):
            return NotImplemented
        if self is other:
            return True
        if (len(self.ids), len(self.arc_ids), len(self.children)) != (
                len(other.ids), len(other.arc_ids), len(other.children)):
            return False
        (nodes, arcs, children), (their_nodes, their_arcs, their_children) = (
            self._id_order(), other._id_order())
        return (all(np.array_equal(mine[order], theirs[their_order])
                    for mine, theirs, order, their_order in (
                        (self.ids, other.ids, nodes, their_nodes),
                        (self.arc_ids, other.arc_ids, arcs, their_arcs),
                        (self.kinds, other.kinds, nodes, their_nodes),
                        (self.parents, other.parents, arcs, their_arcs),
                        (np.diff(self.child_starts), np.diff(other.child_starts), arcs, their_arcs),
                        (self.children, other.children, children, their_children),
                        (self.weight_num, other.weight_num, arcs, their_arcs),
                        (self.weight_den, other.weight_den, arcs, their_arcs)))
                and [self.labels[i] for i in nodes.tolist()]
                == [other.labels[i] for i in their_nodes.tolist()]
                and [self.actions[j] for j in arcs.tolist()]
                == [other.actions[j] for j in their_arcs.tolist()])

    def __hash__(self) -> int:
        return hash(self._sorted_ids())

    def __repr__(self) -> str:
        return f"GraphTemplate({len(self.ids)} nodes, {len(self.arc_ids)} arcs)"


class GraphBuilder:
    """A template's declarations in declaration order, which `template`
    converts to columns. An id, a child or a weight term is an integer or
    its decimal string; an arc's weight is `num / den`, in lowest terms in
    the template. Those fields wait in lists until `flush` converts each
    list to one more batch (`int_column`) and empties it; `template` flushes
    and joins the batches. Kinds and child offsets are `array`s of numbers.
    """

    def __init__(self):
        self.node_ids: list = []
        self.kinds = array("b")
        self.labels: list[str] = []
        self.arc_ids: list = []
        self.parents: list = []
        self.children: list = []
        self.child_starts = array("q", [0])  # offsets into all children, flushed ones too
        self.nums: list = []
        self.dens: list = []
        self.actions: list[tuple[str, ...]] = []
        self.batches: dict[str, list[np.ndarray]] = {
            name: [] for name in ("node_ids", "arc_ids", "parents", "children", "nums", "dens")}
        self.flushed_children = 0

    def node(self, nid, kind: NodeKind, label: str):
        self.node_ids.append(nid)
        self.kinds.append(_CODE[kind])
        self.labels.append(label)

    def arc(self, aid, parent, children: Iterable, num=1, den=1,
            actions: tuple[str, ...] = ()):
        self.arc_ids.append(aid)
        self.parents.append(parent)
        self.children.extend(children)
        self.child_starts.append(self.flushed_children + len(self.children))
        self.nums.append(num)
        self.dens.append(den)
        self.actions.append(actions)

    def flush(self):
        self.flushed_children += len(self.children)
        for name, batches in self.batches.items():
            batches.append(int_column(getattr(self, name)))
            getattr(self, name).clear()

    def template(self) -> GraphTemplate:
        self.flush()
        for batches in self.batches.values():  # joined into one: the template's column
            if len(batches) > 1:
                batches[:] = [np.concatenate(batches)]
        ids, arc_ids, parents, children, num, den = (b[0] for b in self.batches.values())
        common = np.gcd(num, den)
        return GraphTemplate(ids, np.array(self.kinds, dtype=np.int8), tuple(self.labels),
                             arc_ids, parents, np.array(self.child_starts), children,
                             num // common, den // common, tuple(self.actions))


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
    """The object graph of a template, which must pass `checked`: its nodes
    and its arcs, both by id, and each node's arcs."""
    checked = template.checked
    node_rows, arc_rows = template.rows()
    nodes = {nid: Node(nid, label, kind) for nid, kind, label in node_rows}
    arcs = tuple(HyperArc(*row) for row in arc_rows)
    by_parent: dict[int, list[HyperArc]] = {}
    for arc in arcs:
        by_parent.setdefault(arc.parent, []).append(arc)
    ids = template.ids.tolist()
    return AndOrGraph(nodes, arcs, ids[checked.root], ids[checked.failure],
                      by_parent, dict(zip(ids, checked.height.tolist())))


def _check(t: GraphTemplate) -> Checked:
    """Validate a template's columns in one pass.

    Rejects duplicate ids, dangling references, arcs into leaves, empty
    child sets, negative weights, anything but one root and one failure
    node, cycles, and roots no leaf can reach. The error is the one that
    checking node by node and then arc by arc, in declaration order, meets
    first; within an arc the order is duplicate id, unknown parent, leaf
    parent, empty child set, unknown child, negative weight. Its `element`
    is the `("node" | "arc", id)` it is about, or None.

    The last step is Kahn's algorithm, one level of ready nodes at a time:
    a node is ready once all of its children are, leaves first, lifts each
    root or internal parent above itself and passes on whether a leaf
    reaches it. Nodes never ready lie on or above a cycle.
    """
    ids, kinds = t.ids, t.kinds
    n = len(ids)
    by_id = ids.argsort(kind="stable")
    sorted_ids = ids[by_id]
    again = sorted_ids[1:] == sorted_ids[:-1]  # a later declaration of the id before
    count = np.bincount(kinds, minlength=len(KINDS)).tolist()
    if count[_VIRTUAL] or again.any():
        i = min(by_id[1:][again].min(initial=n),
                (kinds == _VIRTUAL).argmax() if count[_VIRTUAL] else n)
        nid = int(ids[i])
        if i in by_id[1:][again]:
            raise DuplicateNodeId(f"node id {nid} declared twice", ("node", nid))
        raise InvalidArc(f"node {nid}: virtual nodes appear only via augment", ("node", nid))
    if count[_ROOT] != 1:
        raise MissingRoot(f"expected exactly one root node, found {count[_ROOT]}")
    if count[_FAILURE] != 1:
        raise MissingFailure(f"expected exactly one failure node, found {count[_FAILURE]}")

    m = len(t.arc_ids)
    refs = np.concatenate((t.parents, t.children))
    at = sorted_ids.searchsorted(refs)
    index = by_id.take(at, mode="clip")
    index[sorted_ids.take(at, mode="clip") != refs] = -1
    del refs, at
    parent, child = index[:m], index[m:]
    arity = t.child_starts[1:] - t.child_starts[:-1]
    arc_ids = t.arc_ids[t.arc_ids.argsort(kind="stable")]
    # `_LEAF` is code 0, so a leaf parent makes `kinds[parent].all()` false.
    if (index.min(initial=0) < 0 or not kinds[parent].all() or not arity.all()
            or t.weight_num.min(initial=0) < 0 or (arc_ids[1:] == arc_ids[:-1]).any()):
        _raise_arc_error(t, parent, child)

    # Node indexes sort on the smallest key that holds them: below 65,536
    # nodes a 16-bit one, on which numpy's stable sort is a radix sort.
    key = np.min_scalar_type(n)
    up = parent.repeat(arity)  # the parent at the other end of each entry of `children`
    pending = np.bincount(up, minlength=n)
    by_child = child.astype(key).argsort(kind="stable")
    above, below = up[by_child], child[by_child]  # each (child, parent) pair, by child
    del up, by_child
    first_above = below.searchsorted(np.arange(n + 1))
    n_above = first_above[1:] - first_above[:-1]
    lifts = _PRICED[kinds][above]  # whether the parent of a pair is priced
    height = np.zeros(n, dtype=np.int64)
    reached = kinds == _LEAF
    ready = (pending == 0).nonzero()[0]
    done = 0
    while len(ready):
        done += len(ready)
        count = n_above[ready]
        ends = count.cumsum()
        if not ends[-1]:
            break  # nothing above the nodes made ready last
        pairs = (first_above[ready] - ends + count).repeat(count) + np.arange(ends[-1])
        lifted, lifting = above[pairs], below[pairs]
        np.maximum.at(height, lifted, (height[lifting] + 1) * lifts[pairs])
        reached[lifted[reached[lifting]]] = True
        np.subtract.at(pending, lifted, 1)
        # Each node once, in time that grows with the pairs of the round, not
        # with the graph (`np.unique` would import numpy.ma, 1 MB of memory).
        ready = lifted[pending[lifted] == 0]
        ready = ready[ready.astype(key).argsort(kind="stable")]
        first = np.ones(len(ready), dtype=bool)
        first[1:] = ready[1:] != ready[:-1]
        ready = ready[first]
    if done < n:
        nid = int(ids[_node_on_cycle(t, pending > 0, by_id, parent, child)])
        raise CycleDetected(f"cycle through node {nid}", ("node", nid))
    root = int((kinds == _ROOT).nonzero()[0][0])
    if not reached[root]:
        raise UnreachableRoot("no leaf reaches the root through any arc chain",
                              ("node", int(ids[root])))
    return Checked(root, int((kinds == _FAILURE).nonzero()[0][0]), height, parent, child)


def _raise_arc_error(t: GraphTemplate, parent: np.ndarray, child: np.ndarray):
    """Raise the error of the first arc that has one, in the order `_check`
    gives."""
    seen: set[int] = set()
    for j, aid in enumerate(t.arc_ids.tolist()):
        element = ("arc", aid)
        if aid in seen:
            raise DuplicateNodeId(f"arc id {aid} declared twice", element)
        seen.add(aid)
        if parent[j] < 0:
            raise DanglingReference(f"arc {aid}: unknown parent {int(t.parents[j])}", element)
        if t.kinds[parent[j]] == _LEAF:
            raise InvalidArc(f"arc {aid}: parent {int(t.parents[j])} is a leaf", element)
        start, stop = t.child_starts[j], t.child_starts[j + 1]
        if start == stop:
            raise InvalidArc(f"arc {aid}: empty child set", element)
        unknown = np.flatnonzero(child[start:stop] < 0)
        if len(unknown):
            raise DanglingReference(
                f"arc {aid}: unknown child {int(t.children[start + unknown[0]])}", element)
        if t.weight_num[j] < 0:
            raise InvalidArc(f"arc {aid}: negative weight", element)


def _node_on_cycle(t: GraphTemplate, left: np.ndarray, by_id: np.ndarray,
                   parent: np.ndarray, child: np.ndarray) -> int:
    """A node on a cycle among the `left` nodes: the walk from the one with
    the smallest id, each time to the first left child of its arcs by arc
    id, repeats a node of a cycle."""
    i = int(by_id[left[by_id]][0])
    seen = set()
    while i not in seen:
        seen.add(i)
        arcs = np.flatnonzero(parent == i)
        arcs = arcs[np.argsort(t.arc_ids[arcs], kind="stable")]
        i = next(c for j in arcs.tolist()
                 for c in child[t.child_starts[j]:t.child_starts[j + 1]].tolist() if left[c])
    return i


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
    virtual_id, arcs = _virtual(graph.nodes, (a.id for a in graph.arcs),
                                graph.failure, graph.root)
    virtual = Node(virtual_id, "virtual", NodeKind.VIRTUAL)
    return AugmentedGraph(base=graph, virtual_node=virtual,
                          virtual_arcs=tuple(HyperArc(*row) for row in arcs))


def _virtual(node_ids: Iterable[int], arc_ids: Iterable[int], failure: int,
             root: int) -> tuple[int, tuple[tuple, tuple]]:
    """The virtual node's id, one above every node id, and the rows of its
    two arcs, numbered on from the arc ids: one from the failure node, one
    from the root."""
    virtual_id = max(node_ids, default=-1) + 1
    arc_id = max(arc_ids, default=-1) + 1
    return virtual_id, ((arc_id, virtual_id, (failure,), Fraction(0), ()),
                        (arc_id + 1, virtual_id, (root,), Fraction(0), ()))


_DOT_SHAPE = {
    NodeKind.LEAF: "ellipse",
    NodeKind.INTERNAL: "box",
    NodeKind.ROOT: "doubleoctagon",
    NodeKind.FAILURE: "octagon",
    NodeKind.VIRTUAL: "diamond",
}


def escape_label(text: str) -> str:
    """`text` escaped for a double-quoted label in DOT or in scenario text."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(template: GraphTemplate, title: str = "andor",
           true_leaves: Collection[int] = frozenset(), virtual: bool = False) -> str:
    """Deterministic DOT rendering of a template, the leaves in `true_leaves`
    filled; `virtual` adds the virtual node of `augment`. Hyper-arcs render
    through point junctions."""
    nodes, arcs = template.rows()
    if virtual:
        virtual_id, virtual_arcs = _virtual((row[0] for row in nodes), (row[0] for row in arcs),
                                            template.failure, template.root)
        nodes += ((virtual_id, NodeKind.VIRTUAL, "virtual"),)
        arcs += virtual_arcs

    lines = [f'digraph "{escape_label(title)}" {{', "  rankdir=BT;",
             '  node [fontname="Helvetica"];']
    for nid, kind, label in nodes:
        attrs = [f'label="{escape_label(label)}"', f"shape={_DOT_SHAPE[kind]}"]
        if kind is NodeKind.LEAF and nid in true_leaves:
            attrs.append('style=filled fillcolor="#c8e6c9"')
        if kind is NodeKind.FAILURE:
            attrs.append('style=filled fillcolor="#ffcdd2"')
        if kind is NodeKind.VIRTUAL:
            attrs.append("style=dashed")
        lines.append(f'  n{nid} [{" ".join(attrs)}];')
    for aid, parent, children, weight, actions in sorted(arcs, key=itemgetter(1, 0)):
        junction = f"h{aid}"
        label_bits = [f"w={weight}"]
        if actions:
            label_bits.append(",".join(actions))
        lines.append(f'  {junction} [shape=point label="" width=0.06];')
        lines.append(f'  {junction} -> n{parent} [label="{escape_label(" ".join(label_bits))}"];')
        for child in children:
            lines.append(f"  n{child} -> {junction} [arrowhead=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"
