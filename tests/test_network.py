"""Graph-network tests: frontiers, selection, suppression, expansion."""

import math
import random
import sys
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from graph_oracle import (
    NodeDecl,
    arc_of,
    arcs_of,
    nodes_of,
    oracle_build_graph,
    oracle_enabled,
    oracle_price,
    template_of,
)
from test_andor import random_template

from taskmotion import andor, scenarios
from taskmotion.andor import (
    INF,
    HyperArc,
    Node,
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
    DEFAULT_DEPTH_CAP,
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


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
    return template_of(nodes, arcs)


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


def fresh_network(depth_cap=DEFAULT_DEPTH_CAP):
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
    assert [(c.node_id, c.arc_id) for c in frontier] == [(5, 1), (6, 2)]


def test_frontier_never_offers_the_failure_node():
    template = template_two_options()
    stuck_when_ready = HyperArc(5, 2, (3,), Fraction(0))
    net = GraphNetwork(template_of(nodes_of(template), arcs_of(template) + (stuck_when_ready,)),
                       {}, simple_actions())
    net.bootstrap(FACTS)
    frontier = net.frontier(FACTS, SIG)
    assert [(c.node_id, c.arc_id) for c in frontier] == [(5, 1), (6, 2)]


def test_selection_prefers_cheapest_solution_path():
    net = fresh_network()
    chosen = net.select(FACTS, SIG)
    # Arc 1 has the lower id, but arc 2 carries the cheaper total cost.
    assert chosen.node_id == 6
    assert chosen.arc_id == 2


def test_partial_truth_limits_frontier():
    net = GraphNetwork(template_two_options(), {}, simple_actions())
    net.bootstrap(frozenset({Fact("ready", ("a",))}))
    frontier = net.frontier(frozenset({Fact("ready", ("a",))}), SIG)
    assert [(c.node_id, c.arc_id) for c in frontier] == [(5, 1)]


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
    net = GraphNetwork(template_of(nodes, arcs), {}, simple_actions())
    net.bootstrap(frozenset({Fact("ready", ("a",))}))
    chosen = net.select(frozenset({Fact("ready", ("a",))}), SIG)
    assert chosen.arc_id == 1


def test_symbolic_applicability_filters_candidates():
    nodes = (
        node(1, NodeKind.ROOT, "done"),
        node(2, NodeKind.FAILURE, "stuck"),
        node(3, NodeKind.LEAF, "ready a"),
    )
    arcs = (HyperArc(1, 1, (3,), Fraction(1), ("guarded",)),)
    net = GraphNetwork(template_of(nodes, arcs), {}, simple_actions())
    facts = frozenset({Fact("ready", ("a",))})
    net.bootstrap(facts)
    assert net.frontier(facts, SIG) == []
    armed = facts | {Fact("armed", ())}
    # Truth was synced at instantiation; applicability tracks live facts.
    assert [c.arc_id for c in net.frontier(armed, SIG)] == [1]


def test_suppression_is_world_scoped():
    net = fresh_network()
    chosen = net.select(FACTS, SIG)
    net.suppress(chosen, SIG)
    remaining = [c.arc_id for c in net.frontier(FACTS, SIG)]
    assert remaining == [1]
    # A different world signature re-admits the suppressed candidate.
    assert [c.arc_id for c in net.frontier(FACTS, "sig-1")] == [1, 2]


def test_stage_complete_expansion_appends_fresh_main_graph():
    net = fresh_network()
    first = net.latest
    entry = net.expand(ExpandReason.STAGE_COMPLETE, frozenset({Fact("ready", ("a",))}), SIG)
    assert net.depth == 2
    assert entry.kind == "main"
    assert entry.true_leaves == {3}
    assert entry.compiled is first.compiled
    # The old graph keeps its leaf truths but no longer feeds the frontier.
    assert net.entries == [first, entry] and first.true_leaves == {3, 4}
    assert [c.arc_id for c in net.frontier(FACTS, SIG)] == [1]


def test_exhausted_frontier_twice_is_a_cycle():
    net = fresh_network()
    net.expand(ExpandReason.NO_FEASIBLE_STATE, FACTS, SIG)
    with pytest.raises(ExpansionCycle):
        net.expand(ExpandReason.NO_FEASIBLE_STATE, FACTS, SIG)


def test_exhausted_frontier_with_new_facts_is_not_a_cycle():
    net = fresh_network()
    net.expand(ExpandReason.NO_FEASIBLE_STATE, FACTS, SIG)
    # New facts make a new world, which has a new signature.
    net.expand(ExpandReason.NO_FEASIBLE_STATE, FACTS | {Fact("used", ("a",))}, "sig-1")
    assert net.depth == 3


@pytest.mark.parametrize("first,second", [
    (ExpandReason.STAGE_COMPLETE, ExpandReason.STAGE_COMPLETE),
    (ExpandReason.STAGE_COMPLETE, ExpandReason.NO_FEASIBLE_STATE),
    (ExpandReason.NO_FEASIBLE_STATE, ExpandReason.STAGE_COMPLETE),
])
def test_every_main_instantiation_in_a_state_seen_before_is_a_cycle(first, second):
    net = fresh_network()
    net.expand(first, FACTS, SIG)
    with pytest.raises(ExpansionCycle, match="same stages instantiated twice with the same "
                                             "world, suppressions and knowledge"):
        net.expand(second, FACTS, SIG)
    assert net.depth == 2


def test_a_rearrangement_repeated_in_the_same_state_is_a_cycle():
    """Only the same stages in the same state repeat: the main graph, or
    the stages of other obstructors, in that state do not."""
    net = GraphNetwork(template_two_options(),
                       {"clear_box1": clear_stage("box1"), "clear_box2": clear_stage("box2")},
                       simple_actions())
    net.bootstrap(FACTS)
    net.expand(ExpandReason.MOTION_FAILURE, FACTS, SIG, ("box1",))
    net.expand(ExpandReason.MOTION_FAILURE, FACTS, SIG, ("box1", "box2"))
    net.expand(ExpandReason.MOTION_FAILURE, FACTS, SIG, ("box2", "box1"))
    net.expand(ExpandReason.MOTION_FAILURE, FACTS, SIG, ("box2",))
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS, SIG)
    with pytest.raises(ExpansionCycle, match="same stages instantiated twice"):
        net.expand(ExpandReason.MOTION_FAILURE, FACTS, SIG, ("box2",))
    assert net.depth == 6


def test_a_new_suppression_or_new_knowledge_makes_a_new_state():
    net = GraphNetwork(template_two_options(), {"clear_box1": clear_stage("box1")},
                       simple_actions())
    net.bootstrap(FACTS)
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS, SIG)
    net.suppress(net.select(FACTS, SIG), SIG)
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS, SIG)
    net.expand(ExpandReason.MOTION_FAILURE, FACTS, SIG, ("box1",))
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS, SIG)
    assert net.depth == 5


@pytest.mark.parametrize("cap", [0, -1])
def test_depth_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match="depth cap"):
        fresh_network(depth_cap=cap)


def test_depth_cap_raises_on_the_excess_expansion():
    net = fresh_network(depth_cap=3)
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS, "sig-1")  # depth 2
    net.expand(ExpandReason.STAGE_COMPLETE, FACTS, "sig-2")  # depth 3 == cap
    with pytest.raises(DepthLimitExceeded):
        net.expand(ExpandReason.STAGE_COMPLETE, FACTS, "sig-3")
    assert net.depth == 3


def clear_stage(oid):
    nodes = (
        node(1, NodeKind.ROOT, f"{oid} out of the way"),
        node(2, NodeKind.FAILURE, "stuck"),
        node(3, NodeKind.LEAF, f"clear {oid}"),
    )
    arcs = (HyperArc(1, 1, (3,), Fraction(1), ("use_a",)),)
    return template_of(nodes, arcs)


def test_rearrangement_composition_structure():
    stages = [("box1", clear_stage("box1")), ("box2", clear_stage("box2"))]
    template = compose_rearrangement(stages)
    root_arcs = [a for a in arcs_of(template) if a.parent == template.root]
    assert len(root_arcs) == 1
    assert len(root_arcs[0].children) == 2
    labels = {n.id: n.label for n in nodes_of(template)}
    kinds = {n.id: n.kind for n in nodes_of(template)}
    for stage_root in root_arcs[0].children:
        assert kinds[stage_root] is NodeKind.INTERNAL
    knowledge = [n for n in nodes_of(template) if n.label.startswith("obstructs ")]
    assert [n.label for n in knowledge] == ["obstructs box1", "obstructs box2"]
    # Each stage root's arc gained its knowledge leaf as an extra child.
    for arc in arcs_of(template):
        if arc.actions == ("use_a",):
            child_labels = {labels[c] for c in arc.children}
            assert any(lbl.startswith("obstructs ") for lbl in child_labels)


def test_motion_failure_expansion_uses_knowledge():
    net = GraphNetwork(template_two_options(), {"clear_box1": clear_stage("box1")},
                       simple_actions())
    net.bootstrap(FACTS)
    # Truths sync against the snapshot taken at expansion time.
    snapshot = FACTS | {Fact("clear", ("box1",))}
    entry = net.expand(ExpandReason.MOTION_FAILURE, snapshot, SIG, ("box1",))
    assert entry.kind == "rearrangement"
    assert Fact("obstructs", ("box1",)) in net.knowledge
    leaves = {decl.label: decl.id for decl in nodes_of(entry.compiled.template)
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
    entry = net.expand(ExpandReason.MOTION_FAILURE, FACTS, SIG, ("ghost", "box1"))
    assert entry.kind == "rearrangement"
    with pytest.raises(UnknownStage):
        net.expand(ExpandReason.MOTION_FAILURE, FACTS, SIG, ("ghost",))

# -- the compiled fast path against the from-scratch reference -------------


def varied_weights(template, rng):
    """The template with small weights over mixed denominators, so that
    scaling to integers matters and equal-cost ties are common."""
    return template_of(nodes_of(template), (
        replace(arc, weight=Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 4, 7])))
        for arc in arcs_of(template)))


def flip_sequences(rng, templates=200, flips=10):
    """(template, truths after each flip) for random templates."""
    for i in range(templates):
        template = random_template(rng)
        if i % 2:
            template = varied_weights(template, rng)
        leaves = sorted(d.id for d in nodes_of(template) if d.kind is NodeKind.LEAF)
        truths = {lid: rng.random() < 0.6 for lid in leaves}
        sequence = [dict(truths)]
        for _ in range(flips):
            lid = rng.choice(leaves)
            truths[lid] = not truths[lid]
            sequence.append(dict(truths))
        yield template, sequence


def arc_at(compiled, place):
    """The arc at a place, built from the template's columns."""
    return arc_of(compiled.template, int(compiled.decl[place]))


def compiled_arcs(compiled):
    """The arc of every place, in place order."""
    return [arc_at(compiled, place) for place in range(len(compiled.decl))]


def assert_search_matches_oracle(compiled, true_leaves):
    """`price` agrees with `graph_oracle`'s evaluation of the whole template:
    the enabled arcs in order, the total of every complete arc and of no
    other, and each solved priced node's cost and cheapest arc (least
    total, then least arc id), whatever order the true leaves come in.
    The result is returned."""
    template = compiled.template
    priced = compiled.price(true_leaves)
    assert compiled.price(sorted(true_leaves, reverse=True)) == priced
    assert [int(compiled.arc_ids[place]) for place in priced.enabled] == oracle_enabled(
        template, true_leaves)
    scale, cost, totals = oracle_price(template, true_leaves)
    assert compiled.scale == scale
    got = np.full(len(template.arc_ids), math.inf, dtype=object)
    got[compiled.decl[list(priced.totals)]] = list(priced.totals.values())
    assert got.tolist() == totals.tolist()
    best = {}
    for j in np.flatnonzero(totals != math.inf).tolist():
        parent, entry = int(template.parents[j]), (totals[j], int(template.arc_ids[j]))
        best[parent] = min(best.get(parent, entry), entry)
    ids = compiled.ids.tolist()
    assert {ids[pos]: (total, int(compiled.arc_ids[place]))
            for pos, (total, place) in priced.best.items()} == best
    assert {nid: total for nid, (total, _) in best.items()} == {
        nid: c for nid, c in zip(template.ids.tolist(), cost.tolist())
        if c != math.inf and nid not in true_leaves}
    return priced


def assert_pricing_matches_refresh(template, compiled, truths):
    """`compiled.price` agrees with `andor`'s from-scratch pricing on every
    node's cost, solvedness and cheapest arc, on every arc's total and on
    the solution arcs, and with `graph_oracle` on the rest."""
    true_leaves = {lid for lid, on in truths.items() if on}
    priced = assert_search_matches_oracle(compiled, true_leaves)
    fresh = oracle_build_graph(template)
    set_leaf_truth(fresh, truths)
    ids = compiled.ids.tolist()
    best = {ids[pos]: entry for pos, entry in priced.best.items()}
    for nid, fresh_node in fresh.nodes.items():
        if fresh_node.kind is NodeKind.LEAF:
            assert node_cost(fresh, nid) == (0 if nid in true_leaves else INF)
            assert nid not in best
            continue
        cost, place = best.get(nid, (None, None))
        got = INF if cost is None else Fraction(cost, compiled.scale)
        assert got == node_cost(fresh, nid), (template, truths, nid)
        assert (got != INF) == solved(fresh, nid)
        assert (place if place is None else arc_at(compiled, place)) == best_arc(fresh, nid)
    chosen = [arc_at(compiled, place) for place in compiled.solution(priced.best)]
    assert {arc.parent: arc for arc in chosen} == solution_subgraph(fresh)
    assert {arc.id for arc in compiled_arcs(compiled)} == {
        arc.id for arc in fresh.arcs if arc.parent != fresh.failure}
    for place, arc in enumerate(compiled_arcs(compiled)):
        want = arc.weight + sum((node_cost(fresh, child) for child in arc.children),
                                Fraction(0))
        total = priced.totals.get(place)
        assert (INF if total is None else Fraction(total, compiled.scale)) == want
        assert compiled.arc_ids[place] == arc.id
    return priced


def test_compiled_pricing_matches_refresh_over_flip_sequences():
    checked = 0
    for template, sequence in flip_sequences(random.Random(20261018)):
        compiled = CompiledGraph(template)
        for truths in sequence:
            assert_pricing_matches_refresh(template, compiled, truths)
            checked += 1
    assert checked == 200 * 11


def layered_template(rng, height, weight, repeat=0.0, shortcut=0.0):
    """Random template whose root has height `height`: every node of layer
    k has an arc with a child in layer k - 1, and may draw other children
    from any lower layer, from the failure node, or from an internal node
    without arcs; the root also has one arc over two leaves. Arc ids are
    shuffled against declaration order, `weight(rng)` draws each arc's
    weight, with probability `repeat` an arc names its first child twice,
    and with probability `shortcut` a node's second or third arc draws its
    first child from any lower layer, leaves included."""
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
            for k in range(rng.randint(1, 3)):
                first = rng.choice(lower)
                if k and shortcut and rng.random() < shortcut:
                    first = rng.choice(below[2:])
                others = rng.sample([n for n in below if n != first], rng.randint(0, 2))
                if repeat and rng.random() < repeat:
                    others.append(first)
                arcs.append((parent, (first, *others)))
    arcs.append((0, tuple(rng.sample(layers[0], 2))))
    arc_ids = rng.sample(range(1, 10 * len(arcs)), len(arcs))
    return template_of(tuple(decls), tuple(
        HyperArc(aid, parent, children, weight(rng))
        for aid, (parent, children) in zip(arc_ids, arcs)))


def random_truths(rng, template, draws):
    leaves = sorted(d.id for d in nodes_of(template) if d.kind is NodeKind.LEAF)
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
        assert template.checked.height.max() == 3 + i % 4
        for truths in random_truths(rng, template, 5):
            assert_pricing_matches_refresh(template, compiled, truths)


@pytest.mark.parametrize("weight", [
    lambda rng: Fraction(rng.randint(0, 3) * 2**61),
    lambda rng: Fraction(rng.randint(0, 3), rng.choice([2**31 - 1, 2**61 - 1])),
], ids=["huge_weights", "huge_scale"])
def test_compiled_pricing_matches_refresh_on_python_integers(weight):
    rng = random.Random(61)
    above = 0
    for _ in range(40):
        template = layered_template(rng, 3, weight)
        compiled = CompiledGraph(template)
        for truths in random_truths(rng, template, 5):
            priced = assert_pricing_matches_refresh(template, compiled, truths)
            above += max(priced.totals.values(), default=0) >= 2**63
    assert above >= 10  # draws with an arc total past int64


def test_random_templates_price_as_the_oracle_and_andor():
    """Layered templates where a node's arcs complete at different heights
    (one over leaves, one over a chain of nodes), arcs mix children of
    several heights, some arcs name a child twice, small weights make equal
    totals common and weights of 2**62 push costs past 2**63."""
    rng = random.Random(2026)
    staggered = mixed = repeated = ties = above = 0
    for i in range(120):
        unit = 2**62 if i % 2 else 1
        template = layered_template(rng, 3 + i % 4,
                                    lambda rng: Fraction(rng.randint(0, 2) * unit),
                                    repeat=0.3, shortcut=0.5)
        compiled = CompiledGraph(template)
        height = template.checked.height[np.argsort(template.ids)]  # by id; ids are 0..n-1
        for truths in random_truths(rng, template, 4):
            priced = assert_pricing_matches_refresh(template, compiled, truths)
            completes_at = {}  # each solved node's heights of complete arcs
            for place in priced.totals:
                kids = compiled.ids[compiled.children[
                    compiled.child_start[place]:compiled.child_start[place + 1]]].tolist()
                completes_at.setdefault(int(compiled.parents[place]), set()).add(
                    max(height[kids].tolist()))
                mixed += len(set(height[kids].tolist())) > 1
                repeated += len(set(kids)) < len(kids)
            staggered += sum(len(heights) > 1 for heights in completes_at.values())
            cheapest = [place for place, total in priced.totals.items()
                        if priced.best[int(compiled.parents[place])][0] == total]
            ties += len(cheapest) - len(priced.best)
            above += any(total >= 2**63 for total, _ in priced.best.values())
    assert min(staggered, mixed, repeated, ties, above) >= 50, (
        staggered, mixed, repeated, ties, above)


def test_a_node_whose_arcs_complete_at_different_heights_is_taken_once_final():
    """Node 6 has a dear arc over a leaf and a free one over a chain of two
    nodes: taken before the chain's top, it would pass the dear cost up."""
    nodes = [NodeDecl(0, NodeKind.ROOT, "root"), NodeDecl(1, NodeKind.FAILURE, "failure"),
             NodeDecl(2, NodeKind.LEAF, "a"), NodeDecl(3, NodeKind.LEAF, "b")]
    nodes += [NodeDecl(nid, NodeKind.INTERNAL, f"node {nid}") for nid in (4, 5, 6, 7)]
    arcs = [HyperArc(1, 4, (2,), Fraction(0)), HyperArc(2, 5, (4,), Fraction(0)),
            HyperArc(3, 6, (3,), Fraction(5)), HyperArc(4, 6, (5,), Fraction(0)),
            HyperArc(5, 7, (6,), Fraction(0)), HyperArc(6, 0, (7,), Fraction(1))]
    template = template_of(nodes, arcs)
    compiled = CompiledGraph(template)
    priced = assert_pricing_matches_refresh(template, compiled, {2: True, 3: True})
    assert priced.best[compiled.root_pos][0] == 1


def test_pricing_reports_only_the_solved_part():
    """Five layers of arity-3 arcs over three leaves, the root's own arcs
    weighing 2**57 and 1: only complete arcs have a total and only solved
    nodes a cost, so no unsolved total ever grows with the layers."""
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
    template = template_of(nodes, arcs)
    compiled = CompiledGraph(template)
    solved_count = {(): 0, (2,): 1, (3, 4): 0, (2, 3, 4): 16}
    for true_leaves, count in solved_count.items():
        truths = {lid: lid in true_leaves for lid in (2, 3, 4)}
        priced = assert_pricing_matches_refresh(template, compiled, truths)
        assert len(priced.best) == count and len(priced.totals) == count + (count > 1)
    root = priced.best[compiled.root_pos]
    assert root == (1, priced.enabled[0]) and compiled.arc_ids[root[1]] == 2


def test_compiled_pricing_matches_refresh_on_the_hanoi_4_main_template():
    scenario = gen_hanoi(4, omnipotent=False)
    compiled = CompiledGraph(scenario.graph)
    rng = random.Random(4)
    init = frozenset(scenario.init)
    at_start = {lid: fact in init for lid, fact in compiled.leaf_facts}
    for truths in [at_start, *random_truths(rng, scenario.graph, 6)]:
        assert_pricing_matches_refresh(scenario.graph, compiled, truths)


def scan_frontier(graph, compiled, achieved, actions, suppressed, facts, world_sig):
    """The frontier as first written: scan every node of a built graph.
    Each candidate takes its arc's place in `compiled`."""
    places = {arc_id: place for place, arc_id in enumerate(compiled.arc_ids.tolist())}
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
            candidate = Candidate(nid, node.label, places[arc.id], arc.id, acts)
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
                       and chosen[c.node_id].id == c.arc_id]
        if on_solution:
            candidates = on_solution

    def sort_key(c):
        arc = next(a for a in graph.arcs_into(c.node_id) if a.id == c.arc_id)
        est = arc.weight + sum(
            (node_cost(graph, child) for child in arc.children), Fraction(0))
        return (est == INF, est if est != INF else Fraction(0), c.arc_id, c.node_id)

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
        template = template_of(nodes_of(template), (
            replace(arc, actions=tuple(rng.sample(names, rng.randint(0, 1))))
            for arc in arcs_of(template)))
        net = GraphNetwork(template, {}, actions)
        suppressed = set()
        for step, truths in enumerate(sequence):
            facts = frozenset(leaf_fact(lid) for lid, on in truths.items() if on)
            if step == 0:
                net.bootstrap(facts)
            else:
                net.expand(ExpandReason.STAGE_COMPLETE, facts, f"world-{step}")
            graph = oracle_build_graph(template)
            set_leaf_truth(graph, truths)
            achieved = {lid for lid, on in truths.items() if on}
            assert net.latest.true_leaves == achieved
            # Suppress a few candidates, checking after each; executing one
            # ends the stage, and the next truths start the next one.
            for _ in range(3):
                sig = rng.choice(["sig-0", "sig-1"])
                want = scan_frontier(graph, net.latest.compiled, achieved, actions,
                                     suppressed, facts, sig)
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
        leaves = [leaf.id for leaf in graph.leaves()]
        for _ in range(10):
            achieved = {lid for lid in leaves if rng.random() < rng.random()}
            want = scan_frontier(graph, compiled, achieved, {}, set(), frozenset(), "sig")
            priced = assert_search_matches_oracle(compiled, achieved)
            assert [arcs[place].id for place in priced.enabled] == [c.arc_id for c in want]
            compared += len(want) > 1 and want[0].node_id == 0
    assert compared >= 20  # the root's arcs lead frontiers that hold others too


def test_frontier_matches_the_scan_on_the_hanoi_4_main_template():
    # A deep graph whose arcs have several children; random sets of true
    # leaves enable arcs, and random facts and suppressions filter.
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
    leaves = sorted(leaf.id for leaf in graph.leaves())
    compared = multi_child = 0
    for density in (0.0, 0.1, 0.3, 0.6, 0.8, 0.9, 1.0) * 16:
        achieved = frozenset(lid for lid in leaves if rng.random() < density)
        net.entries[-1] = GraphEntry(compiled, "main", achieved)
        enabled = [arc for nid in ids if nid not in achieved
                   and graph.nodes[nid].kind is not NodeKind.FAILURE
                   for arc in graph.arcs_into(nid) if achieved.issuperset(arc.children)]
        priced = assert_search_matches_oracle(compiled, achieved)
        assert [arc_at(compiled, place) for place in priced.enabled] == enabled
        multi_child += sum(len(arc.children) > 1 for arc in enabled)
        facts = frozenset(f for f in pool
                          if rng.random() < (0.1 if f in negated else 0.8))
        suppressed = set()
        for _ in range(2):
            want = scan_frontier(graph, compiled, achieved, scenario.actions, suppressed,
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


def test_a_hanoi_dual_run_builds_no_arc_or_node_objects(monkeypatch):
    """Nor does generating, writing and reading its text, nor a run of
    the other workloads, where habitat composes rearrangement graphs."""
    counts = count_constructions(monkeypatch, HyperArc, NodeDecl, Node)
    scenario = parse(serialize(gen_hanoi(6, omnipotent=False)))
    assert counts == {"HyperArc": 0, "NodeDecl": 0, "Node": 0}
    offered = set()
    frontier = GraphNetwork.frontier

    def recording(net, *args):
        candidates = frontier(net, *args)
        offered.update((id(net.latest.compiled), c.arc_id) for c in candidates)
        return candidates

    monkeypatch.setattr(GraphNetwork, "frontier", recording)
    result = run_scenario(scenario, RunConfig(seed=0))
    assert (result.status, result.moves) == (FinalStatus.GOAL_ACHIEVED, 84)
    assert counts == {"HyperArc": 0, "NodeDecl": 0, "Node": 0}
    assert len(offered) == 297
    result = run_scenario(parse(WORKLOADS["habitat"].make_text()), RunConfig(seed=0))
    assert any(entry.kind == "rearrangement" for entry in result.network.entries)
    run_scenario(parse(WORKLOADS["habitat_unclearable"].make_text()), RunConfig(seed=0))
    assert counts == {"HyperArc": 0, "NodeDecl": 0, "Node": 0}


def count_pricing(monkeypatch) -> list[tuple[CompiledGraph, frozenset, int]]:
    """Record each `CompiledGraph.price` call from now on: the graph, the
    true leaves and the fan-out entries (parent arcs of true leaves) it
    counts."""
    calls = []
    price = CompiledGraph.price

    def counting(compiled, true_leaves):
        fan_out = sum(len(compiled.fan_out[lid]) for lid in true_leaves)
        calls.append((compiled, frozenset(true_leaves), fan_out))
        return price(compiled, true_leaves)

    monkeypatch.setattr(CompiledGraph, "price", counting)
    return calls


def test_a_hanoi_dual_run_counts_each_entry_s_true_leaves_once(monkeypatch):
    """Each searched entry is priced once, counting fewer parent arcs of
    true leaves than the graph has children, and every entry's enabled
    arcs and prices equal the oracle's."""
    calls = count_pricing(monkeypatch)
    result = run_scenario(parse(WORKLOADS["hanoi_dual"].make_text()), RunConfig(seed=0))
    assert (result.status, result.moves) == (FinalStatus.GOAL_ACHIEVED, 84)
    entries = result.network.entries
    assert len(calls) == len(entries) == 84
    compiled = entries[0].compiled
    assert len(compiled.children) == 28818
    assert [(graph, leaves) for graph, leaves, _ in calls] == [
        (compiled, entry.true_leaves) for entry in entries]
    assert max(fan_out for *_, fan_out in calls) < 28818
    assert sum(fan_out for *_, fan_out in calls) == 646393
    for entry in entries:
        assert_search_matches_oracle(entry.compiled, entry.true_leaves)


def test_searching_an_entry_again_after_a_suppression_counts_nothing(monkeypatch):
    calls = count_pricing(monkeypatch)
    searched = []
    frontier = GraphNetwork.frontier

    def recording(net, *args):
        searched.append(net.latest)
        return frontier(net, *args)

    monkeypatch.setattr(GraphNetwork, "frontier", recording)
    result = run_scenario(parse(WORKLOADS["habitat_unclearable"].make_text()),
                          RunConfig(seed=0))
    assert result.network.suppressed
    assert len(calls) == len(set(map(id, searched))) < len(searched)
    for entry in result.network.entries:
        assert_search_matches_oracle(entry.compiled, entry.true_leaves)


def test_pricing_matches_the_oracle_on_the_hanoi_8_main_graph(monkeypatch):
    """Over the leaf truths of a two-arm hanoi 8 run with the handover pad
    at its earlier point, (0, 0.45). It ends unsolvable because the pad
    is then too close to peg A to take a disk while the largest one sits
    there."""
    monkeypatch.setattr(scenarios, "PAD_POINT", (0.0, 0.45))
    result = run_scenario(gen_hanoi(8), RunConfig(seed=0, depth_cap=60))
    assert (result.status, result.moves) == (FinalStatus.UNSOLVABLE, 33)
    compiled = result.network.entries[0].compiled
    assert len(compiled.decl) == 76681
    truths = {entry.true_leaves for entry in result.network.entries
              if entry.compiled is compiled}
    assert len(truths) > 20
    for true_leaves in truths:
        assert_search_matches_oracle(compiled, true_leaves)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_entry_prices_as_the_oracle(workload, seed):
    result = run_scenario(parse(WORKLOADS[workload].make_text()), RunConfig(seed=seed))
    assert result.status.value == WORKLOADS[workload].status
    for entry in result.network.entries:
        assert_search_matches_oracle(entry.compiled, entry.true_leaves)


def test_every_hanoi_7_dual_entry_prices_as_the_oracle():
    result = run_scenario(gen_hanoi(7), RunConfig(seed=0))
    assert (result.status, result.moves) == (FinalStatus.GOAL_ACHIEVED, 169)
    for entry in result.network.entries:
        assert_search_matches_oracle(entry.compiled, entry.true_leaves)
