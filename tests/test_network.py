"""Graph-network tests: frontiers, selection, suppression, expansion."""

import random
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from graph_oracle import oracle_build_graph
from test_andor import random_template

from taskmotion import andor
from taskmotion.andor import (
    INF,
    GraphTemplate,
    HyperArc,
    Node,
    NodeDecl,
    NodeKind,
    best_arc,
    node_cost,
    set_leaf_truth,
    solution_subgraph,
    solved,
)
from taskmotion.domain import ActionTemplate, Condition, Fact, MotionClass, chain_applicable
from taskmotion.dsl import parse, parse_file, serialize
from taskmotion.network import (
    Candidate,
    CompiledGraph,
    DepthLimitExceeded,
    ExpandReason,
    ExpansionCycle,
    GraphEntry,
    GraphNetwork,
    UnknownStage,
    compose_rearrangement,
)
from taskmotion.planner import FinalStatus, RunConfig, run_scenario
from taskmotion.scenarios import gen_hanoi


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
        HyperArc(1, 5, (3,), Fraction(5), ("use_a",)),
        HyperArc(2, 6, (4,), Fraction(1), ("use_b",)),
        HyperArc(3, 1, (5,), Fraction(0)),
        HyperArc(4, 1, (6,), Fraction(0)),
    )
    return GraphTemplate.of(nodes, arcs)


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
    assert entry.kind == "main"
    assert entry.true_leaves == {3, 4}
    assert [f.name for f in fields(entry)] == ["compiled", "kind", "true_leaves"]
    with pytest.raises(FrozenInstanceError):
        entry.true_leaves = frozenset()


def test_frontier_lists_arcs_with_achieved_children():
    net = fresh_network()
    frontier = net.frontier(FACTS, SIG)
    assert [(c.node_id, c.arc.id) for c in frontier] == [(5, 1), (6, 2)]


def test_frontier_never_offers_the_failure_node():
    template = template_two_options()
    stuck_when_ready = HyperArc(5, 2, (3,), Fraction(0))
    net = GraphNetwork(GraphTemplate.of(template.nodes, template.arcs + (stuck_when_ready,)),
                       {}, simple_actions())
    net.bootstrap(FACTS)
    frontier = net.frontier(FACTS, SIG)
    assert [(c.node_id, c.arc.id) for c in frontier] == [(5, 1), (6, 2)]


def test_selection_prefers_cheapest_solution_path():
    net = fresh_network()
    chosen = net.select(FACTS, SIG)
    # Arc 1 has the lower id, but arc 2 carries the cheaper total cost.
    assert chosen.node_id == 6
    assert chosen.arc.id == 2


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
        HyperArc(1, 5, (3,), Fraction(2), ("use_a",)),
        HyperArc(2, 6, (3,), Fraction(2), ("use_b",)),
        HyperArc(3, 1, (5, 6, 4), Fraction(0)),
    )
    net = GraphNetwork(GraphTemplate.of(nodes, arcs), {}, simple_actions())
    net.bootstrap(frozenset({Fact("ready", ("a",))}))
    chosen = net.select(frozenset({Fact("ready", ("a",))}), SIG)
    assert chosen.arc.id == 1


def test_symbolic_applicability_filters_candidates():
    nodes = (
        node(1, NodeKind.ROOT, "done"),
        node(2, NodeKind.FAILURE, "stuck"),
        node(3, NodeKind.LEAF, "ready a"),
    )
    arcs = (HyperArc(1, 1, (3,), Fraction(1), ("guarded",)),)
    net = GraphNetwork(GraphTemplate.of(nodes, arcs), {}, simple_actions())
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
    first = net.latest
    entry = net.expand(ExpandReason.STAGE_COMPLETE, frozenset({Fact("ready", ("a",))}))
    assert net.depth == 2
    assert entry.kind == "main"
    assert entry.true_leaves == {3}
    assert entry.compiled is first.compiled
    # The old graph keeps its leaf truths but no longer feeds the frontier.
    assert net.entries == [first, entry] and first.true_leaves == {3, 4}
    assert [c.arc.id for c in net.frontier(FACTS, SIG)] == [1]


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


@pytest.mark.parametrize("cap", [0, -1])
def test_depth_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match="depth cap"):
        fresh_network(depth_cap=cap)


def test_depth_cap_raises_on_the_excess_expansion():
    net = fresh_network(depth_cap=3)
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS)  # depth 2
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS)  # depth 3 == cap
    with pytest.raises(DepthLimitExceeded):
        net.expand(ExpandReason.STAGE_COMPLETE, FACTS)
    assert net.depth == 3


def clear_stage(oid):
    nodes = (
        node(1, NodeKind.ROOT, f"{oid} out of the way"),
        node(2, NodeKind.FAILURE, "stuck"),
        node(3, NodeKind.LEAF, f"clear {oid}"),
    )
    arcs = (HyperArc(1, 1, (3,), Fraction(1), ("use_a",)),)
    return GraphTemplate.of(nodes, arcs)


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
    leaves = {decl.label: decl.id for decl in entry.compiled.template.nodes
              if decl.kind is NodeKind.LEAF}
    assert leaves["obstructs box1"] in entry.true_leaves
    assert leaves["clear box1"] in entry.true_leaves
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
    return GraphTemplate.of(template.nodes, (
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


def compiled_arcs(compiled):
    """The arc of every place, in place order."""
    return [compiled.arc(place) for place in range(len(compiled.decl))]


def assert_pricing_matches_refresh(template, compiled, truths):
    """`compiled.price` agrees with `andor`'s from-scratch pricing on every
    node's cost, solvedness and cheapest arc, and on the solution arcs."""
    cost, totals = compiled.price({lid for lid, on in truths.items() if on})
    fresh = oracle_build_graph(template)
    set_leaf_truth(fresh, truths)
    for nid in fresh.nodes:
        scaled = int(cost[compiled.pos[nid]])
        got = INF if scaled >= compiled.inf else Fraction(scaled, compiled.scale)
        assert got == node_cost(fresh, nid), (template, truths, nid)
        assert (got != INF) == solved(fresh, nid)
        place = compiled.cheapest(cost, totals, nid)
        if fresh.nodes[nid].kind is not NodeKind.LEAF:
            assert (place if place is None else compiled.arc(place)) == best_arc(fresh, nid)
        else:
            assert place is None
    assert {nid: compiled.arc(place) for nid, place in
            compiled.solution(cost, totals).items()} == solution_subgraph(fresh)
    assert {arc.id for arc in compiled_arcs(compiled)} == {
        arc.id for arc in fresh.arcs if arc.parent != fresh.failure}
    for place, arc in enumerate(compiled_arcs(compiled)):
        want = arc.weight + sum((node_cost(fresh, child) for child in arc.children),
                                Fraction(0))
        total = int(totals[place])
        assert (INF if total >= compiled.inf else Fraction(total, compiled.scale)) == want
        assert compiled.place(arc) == place


def test_compiled_pricing_matches_refresh_over_flip_sequences():
    checked = 0
    for template, sequence in flip_sequences(random.Random(20261018)):
        compiled = CompiledGraph(template)
        for truths in sequence:
            assert_pricing_matches_refresh(template, compiled, truths)
            checked += 1
    assert checked == 200 * 11


def layered_template(rng, height, weight):
    """Random template whose root has height `height`: every node of layer
    k has an arc with a child in layer k - 1, and may draw other children
    from any lower layer, from the failure node, or from an internal node
    without arcs. Arc ids are shuffled against declaration order, and
    `weight(rng)` draws each arc's weight."""
    ids = iter(range(3, 1000))
    decls = [NodeDecl(0, NodeKind.ROOT, "root"), NodeDecl(1, NodeKind.FAILURE, "failure"),
             NodeDecl(2, NodeKind.INTERNAL, "no arcs")]
    layers = [[next(ids) for _ in range(rng.randint(2, 4))]]
    decls += [NodeDecl(lid, NodeKind.LEAF, f"leaf {lid}") for lid in layers[0]]
    for _ in range(height - 1):
        layers.append([next(ids) for _ in range(rng.randint(1, 3))])
        decls += [NodeDecl(nid, NodeKind.INTERNAL, f"node {nid}") for nid in layers[-1]]
    layers.append([0])
    arcs = []
    below = [1, 2]
    for lower, layer in zip(layers, layers[1:]):
        below += lower
        for parent in layer:
            for _ in range(rng.randint(1, 3)):
                first = rng.choice(lower)
                others = rng.sample([n for n in below if n != first], rng.randint(0, 2))
                arcs.append((parent, (first, *others)))
    arc_ids = rng.sample(range(1, 10 * len(arcs)), len(arcs))
    return GraphTemplate.of(tuple(decls), tuple(
        HyperArc(aid, parent, children, weight(rng))
        for aid, (parent, children) in zip(arc_ids, arcs)))


def random_truths(rng, template, draws):
    leaves = sorted(d.id for d in template.nodes if d.kind is NodeKind.LEAF)
    for _ in range(draws):
        share = rng.random()
        yield {lid: rng.random() < share for lid in leaves}


def small_weight(rng):
    return Fraction(rng.randint(0, 3), rng.choice([1, 2, 3]))


def test_compiled_pricing_matches_refresh_on_three_or_more_levels():
    rng = random.Random(3)
    for i in range(100):
        template = layered_template(rng, 3 + i % 4, small_weight)
        compiled = CompiledGraph(template)
        assert len(compiled.levels) == 3 + i % 4
        assert compiled.dtype is np.int64
        for truths in random_truths(rng, template, 5):
            assert_pricing_matches_refresh(template, compiled, truths)


@pytest.mark.parametrize("weight", [
    lambda rng: Fraction(rng.randint(0, 3) * 2**61),
    lambda rng: Fraction(rng.randint(0, 3), rng.choice([2**31 - 1, 2**61 - 1])),
], ids=["huge_weights", "huge_scale"])
def test_compiled_pricing_matches_refresh_on_python_integers(weight):
    rng = random.Random(61)
    checked = 0
    for _ in range(40):
        template = layered_template(rng, 3, weight)
        compiled = CompiledGraph(template)
        if compiled.inf < 2**61:
            continue  # every weight drew 0
        assert compiled.dtype is object
        for truths in random_truths(rng, template, 5):
            assert_pricing_matches_refresh(template, compiled, truths)
        checked += 1
    assert checked >= 30


def test_compiled_pricing_clamps_unsolved_totals_within_int64():
    """Five layers of arity-3 arcs over three leaves: unclamped, the totals
    of unsolved nodes would triple per layer and pass 2**63."""
    nodes = [NodeDecl(0, NodeKind.ROOT, "root"), NodeDecl(1, NodeKind.FAILURE, "failure")]
    nodes += [NodeDecl(lid, NodeKind.LEAF, f"leaf {lid}") for lid in (2, 3, 4)]
    arcs = []
    below = (2, 3, 4)
    for first in range(5, 20, 3):
        layer = (first, first + 1, first + 2)
        nodes += [NodeDecl(nid, NodeKind.INTERNAL, f"node {nid}") for nid in layer]
        arcs += [HyperArc(nid, nid, below, Fraction(0)) for nid in layer]
        below = layer
    arcs += [HyperArc(1, 0, below, Fraction(2**57)), HyperArc(2, 0, (2,), Fraction(1))]
    template = GraphTemplate.of(nodes, arcs)
    compiled = CompiledGraph(template)
    assert compiled.dtype is np.int64
    assert compiled.inf == 2**57 + 1
    for true_leaves in ((), (2,), (3, 4), (2, 3, 4)):
        truths = {lid: lid in true_leaves for lid in (2, 3, 4)}
        assert_pricing_matches_refresh(template, compiled, truths)


def test_compiled_pricing_matches_refresh_on_the_hanoi_4_main_template():
    scenario = gen_hanoi(4, omnipotent=False)
    compiled = CompiledGraph(scenario.graph)
    assert compiled.dtype is np.int64
    rng = random.Random(4)
    init = frozenset(scenario.init)
    at_start = {lid: fact in init for lid, fact in compiled.leaf_facts}
    for truths in [at_start, *random_truths(rng, scenario.graph, 6)]:
        assert_pricing_matches_refresh(scenario.graph, compiled, truths)


def scan_frontier(graph, achieved, actions, suppressed, facts, world_sig):
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
            candidate = Candidate(nid, node.label, arc, acts)
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
        template = GraphTemplate.of(template.nodes, (
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
            graph = oracle_build_graph(template)
            set_leaf_truth(graph, truths)
            achieved = {lid for lid, on in truths.items() if on}
            assert net.latest.true_leaves == achieved
            # Suppress a few candidates, checking after each; executing one
            # ends the stage, and the next truths start the next one.
            for _ in range(3):
                sig = rng.choice(["sig-0", "sig-1"])
                want = scan_frontier(graph, achieved, actions, suppressed, facts, sig)
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
                    break
    assert compared > 2000


def test_enabled_keeps_the_scan_order_on_layered_templates():
    """Arc places run level by level, so root 0 has the last places; the
    frontier still comes by parent id, then arc id (ids are shuffled)."""
    rng = random.Random(7)
    compared = 0
    for i in range(60):
        template = layered_template(rng, 2 + i % 4, small_weight)
        compiled = CompiledGraph(template)
        graph = oracle_build_graph(template)
        arcs = compiled_arcs(compiled)
        assert arcs[-1].parent == 0 != arcs[0].parent
        for _ in range(10):
            achieved = {nid for nid in graph.nodes if rng.random() < rng.random()}
            want = [c.arc for c in scan_frontier(graph, achieved, {}, set(), frozenset(),
                                                 "sig")]
            assert [compiled.arc(place) for place in compiled.enabled(achieved)] == want
            compared += len(want) > 1 and want[0].parent == 0
    assert compared >= 20  # the root's arcs lead frontiers that hold others too


def test_frontier_matches_the_scan_on_the_hanoi_4_main_template():
    # A deep graph whose arcs have several children; random achieved sets
    # enable arcs at every level, and random facts and suppressions filter.
    scenario = gen_hanoi(4, omnipotent=False)
    graph = andor.build_graph(scenario.graph)
    conditions = {c for action in scenario.actions.values() for c in action.preconditions}
    pool = sorted({Fact.parse(leaf.label) for leaf in graph.leaves()}
                  | {c.fact for c in conditions})
    # Facts that some action requires to be false are rarely drawn, so that
    # many enabled arcs are also applicable.
    negated = {c.fact for c in conditions if c.negated}
    net = GraphNetwork(scenario.graph, scenario.stages, scenario.actions)
    compiled = net.bootstrap(frozenset(scenario.init)).compiled
    rng = random.Random(44)
    ids = sorted(graph.nodes)
    compared = multi_child = 0
    for density in (0.0, 0.1, 0.3, 0.6, 0.8, 0.9, 1.0) * 4:
        achieved = frozenset(nid for nid in ids if rng.random() < density)
        # The frontier reads every node of `true_leaves` as achieved.
        net.entries[-1] = GraphEntry(compiled, "main", achieved)
        enabled = [arc for nid in ids if nid not in achieved
                   and graph.nodes[nid].kind is not NodeKind.FAILURE
                   for arc in graph.arcs_into(nid) if achieved.issuperset(arc.children)]
        assert [compiled.arc(place) for place in compiled.enabled(achieved)] == enabled
        multi_child += sum(len(arc.children) > 1 for arc in enabled)
        facts = frozenset(f for f in pool
                          if rng.random() < (0.1 if f in negated else 0.8))
        suppressed = set()
        for _ in range(2):
            want = scan_frontier(graph, achieved, scenario.actions, suppressed,
                                 facts, "sig")
            assert net.frontier(facts, "sig") == want
            compared += len(want)
            for candidate in rng.sample(want, len(want) // 2):
                net.suppress(candidate, "sig")
                suppressed.add(candidate.key() + ("sig",))
        net.suppressed.clear()
    assert compared > 1000 and multi_child > 300


def test_a_parsed_main_template_is_never_validated_again(monkeypatch):
    scenario = parse_file(Path(__file__).parent / "fixtures" / "hanoi3.scn")
    assert "checked" in vars(scenario.graph)  # validated by `parse`
    checked = []
    check = andor._check
    monkeypatch.setattr(andor, "_check",
                        lambda template: checked.append(template) or check(template))
    result = run_scenario(scenario, RunConfig(seed=0))
    assert result.status is FinalStatus.GOAL_ACHIEVED
    assert all(entry.compiled.template is scenario.graph
               for entry in result.network.entries if entry.kind == "main")
    # Rendering every entry with its leaf truths reads the shared template.
    for index, entry in enumerate(result.network.entries):
        andor.to_dot(entry.compiled.template, f"graph {index}", entry.true_leaves,
                     virtual=True)
    assert checked == []


def count_constructions(monkeypatch, *classes) -> dict[str, int]:
    """Count the objects of each class built from now on, by name."""
    counts = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_parsing_a_large_graph_builds_no_declaration_or_node_objects(monkeypatch):
    text = serialize(gen_hanoi(6, omnipotent=False))
    counts = count_constructions(monkeypatch, NodeDecl, HyperArc, Node)
    scenario = parse(text)
    assert counts == {"NodeDecl": 0, "HyperArc": 0, "Node": 0}
    assert len(scenario.graph.ids) == 4148 and len(scenario.graph.arc_ids) == 8233


def test_a_hanoi_dual_run_builds_only_the_arcs_its_frontiers_offer(monkeypatch):
    scenario = parse(serialize(gen_hanoi(6, omnipotent=False)))
    offered = set()
    frontier = GraphNetwork.frontier

    def recording(net, *args):
        candidates = frontier(net, *args)
        offered.update((id(net.latest.compiled), c.arc.id) for c in candidates)
        return candidates

    monkeypatch.setattr(GraphNetwork, "frontier", recording)
    counts = count_constructions(monkeypatch, HyperArc)
    result = run_scenario(scenario, RunConfig(seed=0))
    assert (result.status, result.moves) == (FinalStatus.GOAL_ACHIEVED, 84)
    assert counts["HyperArc"] <= len(offered)
    assert (counts["HyperArc"], len(offered)) == (297, 297)
