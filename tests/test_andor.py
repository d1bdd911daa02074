"""AND/OR graph core: validation, truth, costs, augmentation, DOT."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from taskmotion import andor
from taskmotion.andor import (
    AlreadyAugmented,
    AndOrGraph,
    CycleDetected,
    DanglingReference,
    DuplicateNodeId,
    GraphError,
    GraphTemplate,
    HyperArc,
    InvalidArc,
    MissingFailure,
    MissingRoot,
    Node,
    NodeDecl,
    NodeKind,
    NotALeaf,
    UnknownNode,
    UnreachableRoot,
    augment,
    best_arc,
    build_graph,
    node_cost,
    set_leaf_truth,
    solution_subgraph,
    solved,
    to_dot,
)
from taskmotion.scenarios import gen_habitat, gen_hanoi
from graph_oracle import oracle_build_graph
from scn_fuzz import fuzz_scenario

INF = math.inf


def minimal_template(weight=Fraction(1)):
    """Root fed by two leaves through one arc, plus the failure node."""
    return GraphTemplate.of(
        nodes=(
            NodeDecl(0, NodeKind.ROOT, "goal"),
            NodeDecl(1, NodeKind.LEAF, "left fact"),
            NodeDecl(2, NodeKind.LEAF, "right fact"),
            NodeDecl(3, NodeKind.FAILURE, "failure"),
        ),
        arcs=(HyperArc(0, 0, (1, 2), weight),),
    )


def test_template_graph_is_validated_once_and_replace_validates_afresh(monkeypatch):
    checked = []
    check = andor._check
    monkeypatch.setattr(andor, "_check", lambda template: checked.append(template)
                        or check(template))
    template = minimal_template()
    assert template.checked is template.checked and checked == [template]
    graph = build_graph(template)
    assert build_graph(template) == graph and checked == [template]
    assert template == minimal_template() and hash(template) == hash(minimal_template())
    heavier = GraphTemplate.of(template.nodes, (HyperArc(0, 0, (1, 2), Fraction(7)),))
    assert build_graph(heavier).arcs[0].weight == 7 and graph.arcs[0].weight == 1
    assert checked == [template, heavier]
    with pytest.raises(CycleDetected):
        GraphTemplate.of(template.nodes, template.arcs + (HyperArc(1, 0, (0,)),)).checked
    with pytest.raises(ValueError):
        template.ids[0] = 5  # the columns are read-only


def enumerate_solutions(graph, node_id):
    """Oracle: every solution tree cost for a node, by explicit enumeration.

    Independent of the implementation's bottom-up recursion: builds the
    full set of derivation trees and sums their arc weights, counting
    shared subtrees once per use.
    """
    node = graph.nodes[node_id]
    if node.kind is NodeKind.LEAF:
        return [Fraction(0)] if node.truth else []
    if node.kind in (NodeKind.FAILURE, NodeKind.VIRTUAL):
        return []
    costs = []
    for arc in graph.arcs_into(node_id):
        child_options = [enumerate_solutions(graph, c) for c in arc.children]
        if any(not opts for opts in child_options):
            continue
        totals = [arc.weight]
        for opts in child_options:
            totals = [t + o for t in totals for o in opts]
        costs.extend(totals)
    return costs


def oracle_cost(graph, node_id):
    costs = enumerate_solutions(graph, node_id)
    return min(costs) if costs else INF


def random_template(rng, max_nodes=12, max_arcs=8):
    """Random DAG template: layered construction keeps it acyclic."""
    n_nodes = rng.randint(4, max_nodes)
    n_leaves = rng.randint(1, max(1, n_nodes - 3))
    decls = [NodeDecl(0, NodeKind.ROOT, "root"), NodeDecl(1, NodeKind.FAILURE, "failure")]
    leaf_ids = list(range(2, 2 + n_leaves))
    for lid in leaf_ids:
        decls.append(NodeDecl(lid, NodeKind.LEAF, f"leaf {lid}"))
    internal_ids = list(range(2 + n_leaves, n_nodes))
    for iid in internal_ids:
        decls.append(NodeDecl(iid, NodeKind.INTERNAL, f"node {iid}"))
    # Parents may only take children from strictly lower layers: leaves,
    # then internals in id order, then the root on top.
    below: dict[int, list[int]] = {}
    pool = list(leaf_ids)
    for iid in internal_ids:
        below[iid] = list(pool)
        pool.append(iid)
    below[0] = list(pool)
    arcs = []
    arc_id = 0
    parents = internal_ids + [0]
    # Make sure the root can see a leaf so validation passes.
    first_children = tuple(rng.sample(leaf_ids, min(len(leaf_ids), rng.randint(1, 2))))
    arcs.append(HyperArc(arc_id, 0, first_children, Fraction(rng.randint(0, 100), 10)))
    arc_id += 1
    while arc_id < rng.randint(2, max_arcs) and parents:
        parent = rng.choice(parents)
        options = below[parent]
        children = tuple(rng.sample(options, rng.randint(1, min(3, len(options)))))
        arcs.append(HyperArc(arc_id, parent, children, Fraction(rng.randint(0, 100), 10)))
        arc_id += 1
    return GraphTemplate.of(decls, arcs)


def test_minimal_graph_builds_and_solves():
    graph = build_graph(minimal_template())
    assert not solved(graph, 0)
    assert node_cost(graph, 0) == INF
    set_leaf_truth(graph, {1: True, 2: True})
    assert solved(graph, 0)
    assert node_cost(graph, 0) == Fraction(1)


def test_and_semantics_one_false_leaf_blocks_root():
    graph = build_graph(minimal_template())
    set_leaf_truth(graph, {1: True, 2: False})
    assert not solved(graph, 0)
    assert node_cost(graph, 0) == INF


def test_or_choice_takes_cheaper_arc():
    template = GraphTemplate.of(
        nodes=(
            NodeDecl(0, NodeKind.ROOT, "goal"),
            NodeDecl(1, NodeKind.LEAF, "a"),
            NodeDecl(2, NodeKind.LEAF, "b"),
            NodeDecl(3, NodeKind.FAILURE, "failure"),
        ),
        arcs=(
            HyperArc(0, 0, (1,), Fraction(5)),
            HyperArc(1, 0, (2,), Fraction(2)),
        ),
    )
    graph = build_graph(template)
    set_leaf_truth(graph, {1: True, 2: True})
    assert node_cost(graph, 0) == Fraction(2)
    assert best_arc(graph, 0).id == 1
    set_leaf_truth(graph, {2: False})
    assert node_cost(graph, 0) == Fraction(5)
    assert best_arc(graph, 0).id == 0


def test_cost_tie_breaks_to_lowest_arc_id():
    template = GraphTemplate.of(
        nodes=(
            NodeDecl(0, NodeKind.ROOT, "goal"),
            NodeDecl(1, NodeKind.LEAF, "a"),
            NodeDecl(2, NodeKind.LEAF, "b"),
            NodeDecl(3, NodeKind.FAILURE, "failure"),
        ),
        arcs=(
            HyperArc(4, 0, (1,), Fraction(3)),
            HyperArc(7, 0, (2,), Fraction(3)),
        ),
    )
    graph = build_graph(template)
    set_leaf_truth(graph, {1: True, 2: True})
    assert best_arc(graph, 0).id == 4


def test_failure_node_never_solved_and_infinite():
    graph = build_graph(minimal_template())
    set_leaf_truth(graph, {1: True, 2: True})
    assert not solved(graph, 3)
    assert node_cost(graph, 3) == INF


def test_duplicate_node_id_rejected():
    template = minimal_template()
    bad = GraphTemplate.of(template.nodes + (NodeDecl(1, NodeKind.LEAF, "dup"),),
                        template.arcs)
    with pytest.raises(DuplicateNodeId) as err:
        build_graph(bad)
    assert err.value.element == ("node", 1)


def test_dangling_child_reference_rejected():
    template = minimal_template()
    bad = GraphTemplate.of(template.nodes, template.arcs + (HyperArc(1, 0, (99,)),))
    with pytest.raises(DanglingReference):
        build_graph(bad)


def test_cycle_detected():
    template = GraphTemplate.of(
        nodes=(
            NodeDecl(0, NodeKind.ROOT, "goal"),
            NodeDecl(1, NodeKind.INTERNAL, "x"),
            NodeDecl(2, NodeKind.INTERNAL, "y"),
            NodeDecl(3, NodeKind.LEAF, "leaf"),
            NodeDecl(4, NodeKind.FAILURE, "failure"),
        ),
        arcs=(
            HyperArc(0, 0, (1, 3)),
            HyperArc(1, 1, (2,)),
            HyperArc(2, 2, (1,)),
        ),
    )
    with pytest.raises(CycleDetected) as err:
        build_graph(template)
    assert err.value.element in (("node", 1), ("node", 2))


def successors(arcs) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for arc in arcs:
        out.setdefault(arc.parent, set()).update(arc.children)
    return out


def below(succ, start) -> set[int]:
    """Every node reachable from `start` through at least one arc."""
    seen: set[int] = set()
    stack = list(succ.get(start, ()))
    while stack:
        nid = stack.pop()
        if nid not in seen:
            seen.add(nid)
            stack.extend(succ.get(nid, ()))
    return seen


def test_cycle_error_names_a_node_on_the_cycle():
    rng = random.Random(20261018)
    for _ in range(300):
        template = random_template(rng)
        succ = successors(template.arcs)
        priced = [d.id for d in template.nodes
                  if d.kind in (NodeKind.ROOT, NodeKind.INTERNAL)]
        top = rng.choice(priced)
        # A back arc from a priced node at or under `top` up to `top`.
        bottom = rng.choice(sorted({top} | (below(succ, top) & set(priced))))
        back = HyperArc(len(template.arcs), bottom, (top,))
        cyclic = GraphTemplate.of(template.nodes, template.arcs + (back,))
        with pytest.raises(CycleDetected) as err:
            cyclic.checked
        kind, nid = err.value.element
        assert kind == "node" and nid in below(successors(cyclic.arcs), nid)
        assert str(err.value) == f"cycle through node {nid}"


def test_height_is_one_above_the_highest_child_of_a_priced_node():
    rng = random.Random(5)
    templates = [random_template(rng) for _ in range(200)]
    templates += [gen_hanoi(n, omnipotent=solo).graph for n in (3, 4) for solo in (True, False)]
    templates += [gen_habitat().graph, *gen_habitat().stages.values()]
    # The failure node may have arcs, but it is not priced.
    templates.append(GraphTemplate.of(minimal_template().nodes,
                                      minimal_template().arcs + (HyperArc(1, 3, (1,)),)))
    for seed in range(100):
        scn = fuzz_scenario(seed)
        templates += [scn.graph, *scn.stages.values()]
    for template in templates:
        graph = build_graph(template)
        expect: dict[int, int] = {}

        def height(nid: int) -> int:
            if nid not in expect:
                priced = graph.nodes[nid].kind in (NodeKind.ROOT, NodeKind.INTERNAL)
                expect[nid] = max((height(c) + 1 for arc in graph.arcs_into(nid)
                                   for c in arc.children), default=0) if priced else 0
            return expect[nid]

        assert graph.height == {nid: height(nid) for nid in graph.nodes}


def test_missing_root_and_failure_rejected():
    nodes = (
        NodeDecl(0, NodeKind.INTERNAL, "not root"),
        NodeDecl(1, NodeKind.LEAF, "leaf"),
        NodeDecl(2, NodeKind.FAILURE, "failure"),
    )
    with pytest.raises(MissingRoot):
        build_graph(GraphTemplate.of(nodes, (HyperArc(0, 0, (1,)),)))
    nodes2 = (
        NodeDecl(0, NodeKind.ROOT, "root"),
        NodeDecl(1, NodeKind.LEAF, "leaf"),
    )
    with pytest.raises(MissingFailure):
        build_graph(GraphTemplate.of(nodes2, (HyperArc(0, 0, (1,)),)))


def test_arc_into_leaf_rejected():
    template = minimal_template()
    bad = GraphTemplate.of(template.nodes, template.arcs + (HyperArc(1, 1, (2,)),))
    with pytest.raises(InvalidArc):
        build_graph(bad)


def test_root_unreachable_from_leaves_rejected():
    template = GraphTemplate.of(
        nodes=(
            NodeDecl(0, NodeKind.ROOT, "goal"),
            NodeDecl(1, NodeKind.INTERNAL, "island"),
            NodeDecl(2, NodeKind.LEAF, "leaf"),
            NodeDecl(3, NodeKind.FAILURE, "failure"),
        ),
        arcs=(
            HyperArc(0, 0, (1,)),
            HyperArc(1, 1, (3,)),
        ),
    )
    with pytest.raises(UnreachableRoot):
        build_graph(template)


def walk_finds_a_leaf(template) -> bool:
    """The oracle: the depth-first walk that validation once made after
    its cycle check, from the root along the children of every arc."""
    kinds = {decl.id: decl.kind for decl in template.nodes}
    succ = successors(template.arcs)
    root = next(nid for nid, kind in kinds.items() if kind is NodeKind.ROOT)
    seen, frontier = {root}, [root]
    while frontier:
        nid = frontier.pop()
        if kinds[nid] is NodeKind.LEAF:
            return True
        for child in succ.get(nid, ()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return False


def detached(template, rng):
    """A `random_template` whose root arcs reach only the failure node, a
    new internal node without arcs, or internal nodes, which may reach a
    leaf or not; in half of them the failure node has an arc to a leaf."""
    island = max(decl.id for decl in template.nodes) + 1
    pool = [1, island] + [d.id for d in template.nodes if d.kind is NodeKind.INTERNAL]
    arcs = tuple(replace(arc, children=tuple(rng.sample(pool, rng.randint(1, 2))))
                 if arc.parent == 0 else arc for arc in template.arcs)
    if rng.random() < 0.5:
        arcs += (HyperArc(len(arcs), 1, (2,)),)  # 2 is always a leaf
    return GraphTemplate.of(template.nodes + (NodeDecl(island, NodeKind.INTERNAL, "island"),),
                         arcs)


def test_unreachable_root_is_raised_exactly_when_no_leaf_reaches_the_root():
    rng = random.Random(13)
    randoms = [random_template(rng) for _ in range(200)]
    templates = randoms + [detached(template, rng) for template in randoms]
    for seed in range(100):
        scn = fuzz_scenario(seed)
        templates += [scn.graph, *scn.stages.values()]
    unreachable = []
    for template in templates:
        if walk_finds_a_leaf(template):
            assert build_graph(template).nodes
            continue
        with pytest.raises(UnreachableRoot) as err:
            build_graph(template)
        assert err.value.element == ("node", 0)
        assert str(err.value) == "no leaf reaches the root through any arc chain"
        unreachable.append(template)
    assert 50 <= len(unreachable) <= 150  # detached roots go both ways
    # A cycle is reported before an unreachable root, here one under the root.
    for template in unreachable:
        a, b = 1000, 1001
        cyclic = GraphTemplate.of(
            template.nodes + (NodeDecl(a, NodeKind.INTERNAL, "a"),
                              NodeDecl(b, NodeKind.INTERNAL, "b")),
            template.arcs + (HyperArc(1000, a, (b,)), HyperArc(1001, b, (a,)),
                             HyperArc(1002, 0, (a,))))
        with pytest.raises(CycleDetected) as err:
            build_graph(cyclic)
        assert err.value.element in (("node", a), ("node", b))


def validation_outcome(build, template):
    """(root, failure, heights) of a valid template, else the error's
    class, message and element."""
    try:
        graph = build(template)
    except GraphError as err:
        return type(err), str(err), err.element
    return graph.root, graph.failure, graph.height


def mutated(template, rng, kind):
    """The template with one fault of `kind` declared at a random place."""
    nodes, arcs = list(template.nodes), list(template.arcs)
    ids = [decl.id for decl in nodes]
    fresh = max(ids) + 1 + rng.randint(0, 3)
    leaves = [decl.id for decl in nodes if decl.kind is NodeKind.LEAF]
    arc_id = max((arc.id for arc in arcs), default=0) + 1
    children = rng.sample(ids, rng.randint(1, min(3, len(ids))))
    parent = rng.choice(ids)

    def insert(into, item):
        into.insert(rng.randint(0, len(into)), item)

    if kind == "duplicate node id":
        insert(nodes, NodeDecl(rng.choice(ids), rng.choice(list(NodeKind)[:2]), "again"))
    elif kind == "duplicate arc id" and arcs:
        insert(arcs, HyperArc(rng.choice(arcs).id, parent, tuple(children)))
    elif kind == "unknown parent":
        insert(arcs, HyperArc(arc_id, fresh, tuple(children)))
    elif kind == "unknown child":
        children.insert(rng.randint(0, len(children)), fresh)
        insert(arcs, HyperArc(arc_id, parent, tuple(children)))
    elif kind == "leaf parent" and leaves:
        insert(arcs, HyperArc(arc_id, rng.choice(leaves), tuple(children)))
    elif kind == "empty child set":
        insert(arcs, HyperArc(arc_id, parent, ()))
    elif kind == "negative weight":
        insert(arcs, HyperArc(arc_id, parent, tuple(children), Fraction(-rng.randint(1, 9), 2)))
    elif kind == "two roots":
        i = rng.randrange(len(nodes))
        nodes[i] = replace(nodes[i], kind=NodeKind.ROOT)
    elif kind == "no failure node":
        nodes = [replace(decl, kind=NodeKind.INTERNAL) if decl.kind is NodeKind.FAILURE
                 else decl for decl in nodes]
    elif kind == "cycle":
        priced = [d.id for d in nodes if d.kind in (NodeKind.ROOT, NodeKind.INTERNAL)]
        top = rng.choice(priced)
        bottom = rng.choice(sorted({top} | (below(successors(arcs), top) & set(priced))))
        insert(arcs, HyperArc(arc_id, bottom, (top,)))
    elif kind == "unreachable root":
        return detached(template, rng)
    return GraphTemplate.of(nodes, arcs)


FAULTS = ["duplicate node id", "duplicate arc id", "unknown parent", "unknown child",
          "leaf parent", "empty child set", "negative weight", "two roots",
          "no failure node", "cycle", "unreachable root"]


def test_the_column_pass_matches_the_object_validator():
    rng = random.Random(14)
    templates = [random_template(rng) for _ in range(200)]
    templates += [gen_hanoi(n, omnipotent=solo).graph for n in range(3, 7)
                  for solo in (True, False)]
    templates += [gen_habitat().graph, *gen_habitat().stages.values()]
    for seed in range(100):
        scn = fuzz_scenario(seed)
        templates += [scn.graph, *scn.stages.values()]
    # Ids beyond 64 bits are held in object columns.
    templates += [GraphTemplate.of(
        [replace(decl, id=decl.id + 2**70) for decl in template.nodes],
        [replace(arc, id=arc.id * 2**64, parent=arc.parent + 2**70,
                 children=tuple(c + 2**70 for c in arc.children)) for arc in template.arcs])
        for template in templates[:20]]
    for template in templates:
        outcome = validation_outcome(build_graph, template)
        assert outcome == validation_outcome(oracle_build_graph, template)
        assert not isinstance(outcome[0], type)
    faulty = [mutated(template, rng, kind)
              for template in templates[:60] + templates[-40:] for kind in FAULTS]
    # Two faults in one template: the first one declared is reported.
    faulty += [mutated(mutated(template, rng, rng.choice(FAULTS)), rng, rng.choice(FAULTS))
               for template in templates[:200]]
    seen = set()
    for template in faulty:
        outcome = validation_outcome(build_graph, template)
        assert outcome == validation_outcome(oracle_build_graph, template), template.arcs
        seen.add(outcome[0])
    assert seen >= {DuplicateNodeId, DanglingReference, InvalidArc, MissingRoot,
                    MissingFailure, CycleDetected, UnreachableRoot}


def test_set_leaf_truth_rejects_non_leaf_and_unknown():
    graph = build_graph(minimal_template())
    with pytest.raises(NotALeaf):
        set_leaf_truth(graph, {0: True})
    with pytest.raises(UnknownNode):
        set_leaf_truth(graph, {42: True})
    with pytest.raises(UnknownNode):
        solved(graph, 42)
    with pytest.raises(UnknownNode):
        node_cost(graph, 42)


def test_truth_flip_recomputes_as_if_fresh():
    graph = build_graph(minimal_template())
    set_leaf_truth(graph, {1: True, 2: True})
    assert solved(graph, 0)
    set_leaf_truth(graph, {2: False})
    assert not solved(graph, 0)
    set_leaf_truth(graph, {2: True})
    assert node_cost(graph, 0) == Fraction(1)


def test_augment_minimal_graph_adds_virtual_node_and_two_arcs():
    graph = build_graph(minimal_template())
    aug = augment(graph)
    assert aug.virtual_node.kind is NodeKind.VIRTUAL
    assert len(aug.virtual_arcs) == 2
    assert all(a.parent == aug.virtual_node.id for a in aug.virtual_arcs)
    children = sorted(c for a in aug.virtual_arcs for c in a.children)
    assert children == sorted([graph.failure, graph.root])
    # 4 base nodes plus the virtual one.
    assert len(graph.nodes) + 1 == 5
    # Base untouched.
    assert aug.virtual_node.id not in graph.nodes
    with pytest.raises(AlreadyAugmented):
        augment(aug)


def test_to_dot_deterministic_and_structurally_closed():
    first = to_dot(minimal_template(), true_leaves={1}, virtual=True)
    second = to_dot(minimal_template(), true_leaves=frozenset({1}), virtual=True)
    assert first == second
    assert '  n1 [label="left fact" shape=ellipse style=filled fillcolor="#c8e6c9"];' in first
    assert '  n4 [label="virtual" shape=diamond style=dashed];' in first
    assert "n4" not in to_dot(minimal_template())
    declared = set()
    referenced = set()
    for line in first.splitlines():
        line = line.strip()
        if line.startswith(("n", "h")) and "[" in line and "->" not in line:
            declared.add(line.split(" ", 1)[0])
        if "->" in line:
            lhs, rhs = line.split("->")
            referenced.add(lhs.strip().split(" ")[0])
            referenced.add(rhs.strip().split(" ")[0].rstrip(";"))
    assert referenced <= declared


def test_oracle_equivalence_on_random_graphs():
    rng = random.Random(20260816)
    for _ in range(80):
        template = random_template(rng)
        graph = build_graph(template)
        truths = {n.id: rng.random() < 0.6 for n in graph.leaves()}
        set_leaf_truth(graph, truths)
        for nid in graph.nodes:
            costs = enumerate_solutions(graph, nid)
            assert solved(graph, nid) == bool(costs)
            expect = min(costs) if costs else INF
            assert node_cost(graph, nid) == expect


def test_solution_subgraph_nodes_lie_on_minimal_cost_tree():
    rng = random.Random(7)
    solvable_seen = 0
    for _ in range(120):
        template = random_template(rng)
        graph = build_graph(template)
        set_leaf_truth(graph, {n.id: rng.random() < 0.7 for n in graph.leaves()})
        chosen = solution_subgraph(graph)
        if not solved(graph, graph.root):
            assert chosen == {}
            continue
        solvable_seen += 1
        root_arc = chosen[graph.root]
        total = root_arc.weight + sum(node_cost(graph, c) for c in root_arc.children)
        assert total == node_cost(graph, graph.root)
        for nid, arc in chosen.items():
            assert arc.parent == nid
            here = arc.weight + sum(node_cost(graph, c) for c in arc.children)
            assert here == node_cost(graph, nid)
    assert solvable_seen > 10


def test_uniform_weight_scaling_preserves_choices():
    rng = random.Random(99)
    for _ in range(40):
        template = random_template(rng)
        graph = build_graph(template)
        truths = {n.id: rng.random() < 0.7 for n in graph.leaves()}
        set_leaf_truth(graph, truths)
        base_choice = {nid: arc.id for nid, arc in solution_subgraph(graph).items()}
        scaled = GraphTemplate.of(
            template.nodes,
            tuple(HyperArc(a.id, a.parent, a.children, a.weight * 17, a.actions)
                  for a in template.arcs),
        )
        graph2 = build_graph(scaled)
        set_leaf_truth(graph2, truths)
        scaled_choice = {nid: arc.id for nid, arc in solution_subgraph(graph2).items()}
        assert base_choice == scaled_choice
