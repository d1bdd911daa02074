"""Graph-network tests: frontiers, selection, suppression, expansion."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from test_andor import random_template

from taskmotion.andor import (
    INF,
    ArcDecl,
    GraphTemplate,
    NodeDecl,
    NodeKind,
    best_arc,
    build_graph,
    node_cost,
    set_leaf_truth,
    solution_subgraph,
    solved,
)
from taskmotion.domain import ActionTemplate, Condition, Fact, MotionClass, chain_applicable
from taskmotion.network import (
    Candidate,
    CompiledGraph,
    DepthLimitExceeded,
    ExpandReason,
    ExpansionCycle,
    GraphNetwork,
    UnknownStage,
    compose_rearrangement,
)


def node(nid, kind, label):
    return NodeDecl(nid, kind, label)


def template_two_options():
    """Root reachable through a cheap arc (id 2) and a pricey one (id 1)."""
    nodes = (
        node(1, NodeKind.ROOT, "done"),
        node(2, NodeKind.FAILURE, "stuck"),
        node(3, NodeKind.LEAF, "ready a"),
        node(4, NodeKind.LEAF, "ready b"),
        node(5, NodeKind.INTERNAL, "via a"),
        node(6, NodeKind.INTERNAL, "via b"),
    )
    arcs = (
        ArcDecl(1, 5, (3,), Fraction(5), ("use_a",)),
        ArcDecl(2, 6, (4,), Fraction(1), ("use_b",)),
        ArcDecl(3, 1, (5,), Fraction(0)),
        ArcDecl(4, 1, (6,), Fraction(0)),
    )
    return GraphTemplate(nodes, arcs, 1, 2)


def simple_actions():
    return {
        "use_a": ActionTemplate("use_a", MotionClass.SYMBOLIC,
                                effects_add=frozenset({Fact("used", ("a",))})),
        "use_b": ActionTemplate("use_b", MotionClass.SYMBOLIC,
                                effects_add=frozenset({Fact("used", ("b",))})),
        "guarded": ActionTemplate(
            "guarded", MotionClass.SYMBOLIC,
            preconditions=(Condition(Fact("armed", ())),)),
    }


FACTS = frozenset({Fact("ready", ("a",)), Fact("ready", ("b",))})
SIG = "sig-0"


def fresh_network(depth_cap=512):
    net = GraphNetwork(template_two_options(), {}, simple_actions(), depth_cap)
    net.bootstrap(FACTS)
    return net


def test_bootstrap_marks_true_leaves_achieved():
    net = fresh_network()
    assert net.depth == 1
    entry = net.latest
    assert entry.achieved == {3, 4}
    assert entry.kind == "main"
    assert entry.true_leaves == {3, 4}


def test_frontier_lists_arcs_with_achieved_children():
    net = fresh_network()
    frontier = net.frontier(FACTS, SIG)
    assert [(c.node_id, c.arc.id) for c in frontier] == [(5, 1), (6, 2)]


def test_selection_prefers_cheapest_solution_path():
    net = fresh_network()
    chosen = net.select(FACTS, SIG)
    # Arc 1 has the lower id, but arc 2 carries the cheaper total cost.
    assert chosen.node_id == 6
    assert chosen.arc.id == 2


def test_execution_cascades_toward_the_root():
    net = fresh_network()
    chosen = net.select(FACTS, SIG)
    net.mark_executed(chosen)
    frontier = net.frontier(FACTS, SIG)
    assert (1, 4) in [(c.node_id, c.arc.id) for c in frontier]


def test_partial_truth_limits_frontier():
    net = GraphNetwork(template_two_options(), {}, simple_actions())
    net.bootstrap(frozenset({Fact("ready", ("a",))}))
    frontier = net.frontier(frozenset({Fact("ready", ("a",))}), SIG)
    assert [(c.node_id, c.arc.id) for c in frontier] == [(5, 1)]


def test_fallback_ordering_when_root_unsolvable():
    nodes = (
        node(1, NodeKind.ROOT, "done"),
        node(2, NodeKind.FAILURE, "stuck"),
        node(3, NodeKind.LEAF, "ready a"),
        node(4, NodeKind.LEAF, "never"),
        node(5, NodeKind.INTERNAL, "low priority"),
        node(6, NodeKind.INTERNAL, "high priority"),
    )
    # The root requires an unreachable leaf, so no solution subgraph exists;
    # selection must fall back to cost then arc id among candidates.
    arcs = (
        ArcDecl(1, 5, (3,), Fraction(2), ("use_a",)),
        ArcDecl(2, 6, (3,), Fraction(2), ("use_b",)),
        ArcDecl(3, 1, (5, 6, 4), Fraction(0)),
    )
    net = GraphNetwork(GraphTemplate(nodes, arcs, 1, 2), {}, simple_actions())
    net.bootstrap(frozenset({Fact("ready", ("a",))}))
    chosen = net.select(frozenset({Fact("ready", ("a",))}), SIG)
    assert chosen.arc.id == 1


def test_symbolic_applicability_filters_candidates():
    nodes = (
        node(1, NodeKind.ROOT, "done"),
        node(2, NodeKind.FAILURE, "stuck"),
        node(3, NodeKind.LEAF, "ready a"),
    )
    arcs = (ArcDecl(1, 1, (3,), Fraction(1), ("guarded",)),)
    net = GraphNetwork(GraphTemplate(nodes, arcs, 1, 2), {}, simple_actions())
    facts = frozenset({Fact("ready", ("a",))})
    net.bootstrap(facts)
    assert net.frontier(facts, SIG) == []
    armed = facts | {Fact("armed", ())}
    # Truth was synced at instantiation; applicability tracks live facts.
    assert [c.arc.id for c in net.frontier(armed, SIG)] == [1]


def test_suppression_is_world_scoped():
    net = fresh_network()
    chosen = net.select(FACTS, SIG)
    net.suppress(chosen, SIG)
    remaining = [c.arc.id for c in net.frontier(FACTS, SIG)]
    assert remaining == [1]
    # A different world signature re-admits the suppressed candidate.
    assert [c.arc.id for c in net.frontier(FACTS, "sig-1")] == [1, 2]


def test_stage_complete_expansion_appends_fresh_main_graph():
    net = fresh_network()
    chosen = net.select(FACTS, SIG)
    net.mark_executed(chosen)
    entry = net.expand(ExpandReason.STAGE_COMPLETE, FACTS)
    assert net.depth == 2
    assert entry.kind == "main"
    assert entry.achieved == {3, 4}
    assert entry.compiled is net.entries[0].compiled
    # Old graph keeps its achieved history but no longer feeds the frontier.
    assert all(c.graph_index == 1 for c in net.frontier(FACTS, SIG))


def test_exhausted_frontier_twice_is_a_cycle():
    net = fresh_network()
    net.expand(ExpandReason.NO_FEASIBLE_STATE, FACTS)
    with pytest.raises(ExpansionCycle):
        net.expand(ExpandReason.NO_FEASIBLE_STATE, FACTS)


def test_exhausted_frontier_with_new_facts_is_not_a_cycle():
    net = fresh_network()
    net.expand(ExpandReason.NO_FEASIBLE_STATE, FACTS)
    net.expand(ExpandReason.NO_FEASIBLE_STATE, FACTS | {Fact("used", ("a",))})
    assert net.depth == 3


def test_depth_cap_raises_on_the_excess_expansion():
    net = fresh_network(depth_cap=3)
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS)  # depth 2
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS)  # depth 3
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS)  # depth 4 == cap + 1
    with pytest.raises(DepthLimitExceeded):
        net.expand(ExpandReason.STAGE_COMPLETE, FACTS)


def clear_stage(oid):
    nodes = (
        node(1, NodeKind.ROOT, f"{oid} out of the way"),
        node(2, NodeKind.FAILURE, "stuck"),
        node(3, NodeKind.LEAF, f"clear {oid}"),
    )
    arcs = (ArcDecl(1, 1, (3,), Fraction(1), ("use_a",)),)
    return GraphTemplate(nodes, arcs, 1, 2)


def test_rearrangement_composition_structure():
    stages = [("box1", clear_stage("box1")), ("box2", clear_stage("box2"))]
    template = compose_rearrangement(stages)
    root_arcs = [a for a in template.arcs if a.parent == template.root]
    assert len(root_arcs) == 1
    assert len(root_arcs[0].children) == 2
    labels = {n.id: n.label for n in template.nodes}
    kinds = {n.id: n.kind for n in template.nodes}
    for stage_root in root_arcs[0].children:
        assert kinds[stage_root] is NodeKind.INTERNAL
    knowledge = [n for n in template.nodes if n.label.startswith("obstructs ")]
    assert [n.label for n in knowledge] == ["obstructs box1", "obstructs box2"]
    # Each stage root's arc gained its knowledge leaf as an extra child.
    for arc in template.arcs:
        if arc.actions == ("use_a",):
            child_labels = {labels[c] for c in arc.children}
            assert any(lbl.startswith("obstructs ") for lbl in child_labels)


def test_motion_failure_expansion_uses_knowledge():
    net = GraphNetwork(template_two_options(), {"clear_box1": clear_stage("box1")},
                       simple_actions())
    net.bootstrap(FACTS)
    # Truths sync against the snapshot taken at expansion time.
    snapshot = FACTS | {Fact("clear", ("box1",))}
    entry = net.expand(ExpandReason.MOTION_FAILURE, snapshot, ("box1",))
    assert entry.kind == "rearrangement"
    assert Fact("obstructs", ("box1",)) in net.knowledge
    leaves = {leaf.label: leaf for leaf in entry.graph().leaves()}
    assert leaves["obstructs box1"].truth
    assert leaves["clear box1"].truth
    # The relocation arc is executable straight away.
    frontier = net.frontier(snapshot, SIG)
    assert any(c.actions and c.actions[0].name == "use_a" for c in frontier)


def test_motion_failure_skips_unknown_stages():
    net = GraphNetwork(template_two_options(), {"clear_box1": clear_stage("box1")},
                       simple_actions())
    net.bootstrap(FACTS)
    entry = net.expand(ExpandReason.MOTION_FAILURE, FACTS, ("ghost", "box1"))
    assert entry.kind == "rearrangement"
    with pytest.raises(UnknownStage):
        net.expand(ExpandReason.MOTION_FAILURE, FACTS, ("ghost",))

# -- the compiled fast path against the from-scratch reference -------------


def varied_weights(template, rng):
    """The template with small weights over mixed denominators, so that
    scaling to integers matters and equal-cost ties are common."""
    return replace(template, arcs=tuple(
        replace(arc, weight=Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 4, 7])))
        for arc in template.arcs))


def flip_sequences(rng, templates=200, flips=10):
    """(template, truths after each flip) for random templates."""
    for i in range(templates):
        template = random_template(rng)
        if i % 2:
            template = varied_weights(template, rng)
        leaves = sorted(d.id for d in template.nodes if d.kind is NodeKind.LEAF)
        truths = {lid: rng.random() < 0.6 for lid in leaves}
        sequence = [dict(truths)]
        for _ in range(flips):
            lid = rng.choice(leaves)
            truths[lid] = not truths[lid]
            sequence.append(dict(truths))
        yield template, sequence


def test_compiled_pricing_matches_refresh_over_flip_sequences():
    checked = 0
    for template, sequence in flip_sequences(random.Random(20261018)):
        compiled = CompiledGraph(build_graph(template))
        for truths in sequence:
            cost, choice = compiled.price({lid for lid, on in truths.items() if on})
            fresh = build_graph(template)
            set_leaf_truth(fresh, truths)
            for nid in fresh.nodes:
                want = node_cost(fresh, nid)
                got = cost[nid] if cost[nid] == INF else Fraction(cost[nid], compiled.scale)
                assert got == want, (template, truths, nid)
                assert (cost[nid] != INF) == solved(fresh, nid)
                if fresh.nodes[nid].kind is not NodeKind.LEAF:
                    assert choice.get(nid) == best_arc(fresh, nid)
            assert compiled.solution(cost, choice) == solution_subgraph(fresh)
            checked += 1
    assert checked == 200 * 11


def scan_frontier(graph, achieved, actions, suppressed, facts, world_sig, index):
    """The frontier as first written: scan every node of a built graph."""
    out = []
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        if nid in achieved or node.kind in (NodeKind.FAILURE, NodeKind.VIRTUAL,
                                            NodeKind.LEAF):
            continue
        for arc in graph.arcs_into(nid):
            if not set(arc.children) <= achieved:
                continue
            acts = tuple(actions[name] for name in arc.actions)
            candidate = Candidate(index, nid, node.label, arc, acts)
            label, names = candidate.key()
            if (label, names, world_sig) in suppressed:
                continue
            if not chain_applicable(facts, acts):
                continue
            out.append(candidate)
    return out


def scan_select(graph, candidates):
    """The selection as first written, priced by `andor`."""
    if not candidates:
        return None
    if solved(graph, graph.root):
        chosen = solution_subgraph(graph)
        on_solution = [c for c in candidates
                       if chosen.get(c.node_id) is not None
                       and chosen[c.node_id].id == c.arc.id]
        if on_solution:
            candidates = on_solution

    def sort_key(c):
        est = c.arc.weight + sum(
            (node_cost(graph, child) for child in c.arc.children), Fraction(0))
        return (est == INF, est if est != INF else Fraction(0), c.arc.id, c.node_id)

    return min(candidates, key=sort_key)


def leaf_fact(lid):
    return Fact("leaf", (str(lid),))  # `random_template` labels leaves "leaf <id>"


def test_frontier_and_select_match_the_scan_over_flip_sequences():
    rng = random.Random(4242)
    actions = simple_actions()
    actions["needs_leaf_2"] = ActionTemplate(
        "needs_leaf_2", MotionClass.SYMBOLIC, preconditions=(Condition(leaf_fact(2)),))
    names = sorted(actions)
    compared = 0
    for template, sequence in flip_sequences(rng):
        template = replace(template, arcs=tuple(
            replace(arc, actions=tuple(rng.sample(names, rng.randint(0, 1))))
            for arc in template.arcs))
        net = GraphNetwork(template, {}, actions)
        suppressed = set()
        for step, truths in enumerate(sequence):
            facts = frozenset(leaf_fact(lid) for lid, on in truths.items() if on)
            if step == 0:
                net.bootstrap(facts)
            else:
                net.expand(ExpandReason.STAGE_COMPLETE, facts)
            graph = build_graph(template)
            set_leaf_truth(graph, truths)
            achieved = {lid for lid, on in truths.items() if on}
            assert net.latest.achieved == achieved
            # Execute and suppress a few candidates, checking after each.
            for _ in range(3):
                sig = rng.choice(["sig-0", "sig-1"])
                want = scan_frontier(graph, achieved, actions, suppressed, facts,
                                     sig, net.depth - 1)
                assert net.frontier(facts, sig) == want
                chosen = net.select(facts, sig)
                assert chosen == scan_select(graph, want)
                compared += 1
                if chosen is None:
                    break
                if rng.random() < 0.3:
                    net.suppress(chosen, sig)
                    suppressed.add(chosen.key() + (sig,))
                else:
                    net.mark_executed(chosen)
                    achieved.add(chosen.node_id)
    assert compared > 2000
