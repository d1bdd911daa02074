"""Acceptance checks: one test per shipping criterion.

Each test prints a single PASS or FAIL line naming the criterion, then
asserts, so a plain pytest run gives one verdict per criterion and a
verbose run pairs each with its evidence.
"""

import math
import random
import time
from dataclasses import replace
from pathlib import Path

from scn_fuzz import fuzz_scenario
from test_andor import oracle_cost, random_template

from taskmotion import interface
from taskmotion.andor import (
    INF,
    NodeKind,
    best_arc,
    build_graph,
    node_cost,
    set_leaf_truth,
    solved,
)
from taskmotion.domain import ActionTemplate, Fact, MotionClass
from taskmotion.dsl import DslError, parse, serialize
from taskmotion.planner import (
    MODULE_ROWS,
    FinalStatus,
    masked_metrics_text,
    masked_trace_text,
    run_scenario,
)
from taskmotion.scenarios import gen_habitat, gen_hanoi
from taskmotion.world import (
    Agent,
    Obj,
    World,
    plan_motion,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(name: str, ok: bool, detail: str = ""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_ac1_classic_tower_at_closed_form_optimum():
    notes = []
    ok = True
    for n in (3, 4, 5):
        start = time.perf_counter()
        res = run_scenario(gen_hanoi(n, omnipotent=True))
        wall = time.perf_counter() - start
        want = 2 ** n - 1
        good = (res.status is FinalStatus.GOAL_ACHIEVED
                and res.moves == want and res.depth == want and wall < 10.0)
        ok = ok and good
        notes.append(f"n={n}: moves={res.moves}/{want} d={res.depth} "
                     f"wall={wall:.2f}s")
    report("AC1 one-arm tower solves in exactly 2^n-1 moves under 10s",
           ok, "; ".join(notes))


def test_ac2_two_arm_tower_pays_for_the_relay():
    notes = []
    ok = True
    depths = []
    for n in (3, 4, 5):
        res = run_scenario(gen_hanoi(n))
        classic = 2 ** n - 1
        good = (res.status is FinalStatus.GOAL_ACHIEVED
                and res.depth > classic and res.handovers() >= 1)
        ok = ok and good
        depths.append(res.depth)
        notes.append(f"n={n}: d={res.depth}>{classic} handovers={res.handovers()}")
    ok = ok and depths == sorted(depths)
    report("AC2 split-reach tower needs handovers and extra depth",
           ok, "; ".join(notes) + f"; depths {depths} non-decreasing")


def test_ac3_costs_match_exhaustive_enumeration():
    rng = random.Random(20260816)
    start = time.perf_counter()
    graphs = 0
    mismatches = 0
    nodes_checked = 0
    off_optimum = 0
    while graphs < 200:
        template = random_template(rng)
        graph = build_graph(template)
        set_leaf_truth(graph, {leaf.id: rng.random() < 0.6
                               for leaf in graph.leaves()})
        graphs += 1
        for node in graph.nodes.values():
            if node.kind is NodeKind.FAILURE:
                continue
            reference = oracle_cost(graph, node.id)
            if node_cost(graph, node.id) != reference:
                mismatches += 1
            if solved(graph, node.id) != (reference < INF):
                mismatches += 1
            nodes_checked += 1
            arc = best_arc(graph, node.id)
            if reference < INF and arc is not None:
                # The recommended arc must sit on a minimal-cost
                # solution: its own weight plus its children's optimal
                # costs has to reproduce the node's optimal cost.
                via = arc.weight + sum(node_cost(graph, child)
                                       for child in arc.children)
                if via != reference:
                    off_optimum += 1
    wall = time.perf_counter() - start
    ok = mismatches == 0 and off_optimum == 0 and wall < 5.0
    report("AC3 200 random graphs price every node like brute enumeration",
           ok, f"{nodes_checked} nodes, {mismatches} mismatches, "
               f"{off_optimum} off-optimum arcs, wall={wall:.2f}s<5s")


def _probe_world(rng: random.Random):
    """One random reach-and-grasp problem; returns world, query, reachable."""
    reach = 0.9
    in_reach = rng.random() >= 0.25
    angle = rng.uniform(-0.7, 0.7)
    dist = rng.uniform(0.5, 0.8) if in_reach else rng.uniform(0.95, 1.05)
    tx = round(dist * math.cos(angle), 3)
    ty = round(dist * math.sin(angle), 3)
    objects = {"prize": Obj("prize", "circle", (0.03,), tx, ty, movable=True)}
    if in_reach:
        for w in range(rng.randint(1, 2)):
            wx = round(rng.uniform(0.15, max(0.16, tx - 0.12)), 3)
            objects[f"slab{w}"] = Obj(f"slab{w}", "box", (0.06, 2.4),
                                      wx, round(rng.uniform(-0.1, 0.1), 3),
                                      movable=True, blocks="arm")
    for d in range(rng.randint(0, 3)):
        objects[f"decoy{d}"] = Obj(f"decoy{d}", "circle", (0.04,),
                                   round(rng.uniform(-0.85, -0.3), 3),
                                   round(rng.uniform(-0.85, 0.85), 3),
                                   movable=True)
    arm = Agent("arm", "arm", anchor=(0.0, 0.0), reach=reach, config=(0.0, 0.0))
    world = World(bounds=(-1.2, -1.3, 1.2, 1.3), objects=objects,
                  agents={"arm": arm})
    grasp = ActionTemplate("grasp_prize", MotionClass.TRANSFER, verb="grasp",
                           manipulated="prize")
    return world, ("arm", grasp, (tx, ty)), in_reach


def test_ac4_obstruction_reports_are_complete_and_honest():
    rng = random.Random(41)
    cases = blocked = out_of_reach = 0
    bad = []
    while cases < 100:
        world, query, in_reach = _probe_world(rng)
        result = plan_motion(world, *query)
        cases += 1
        if not in_reach:
            out_of_reach += 1
            if result.feasible or result.obstructors != ():
                bad.append(f"case {cases}: unreachable target gave "
                           f"{result.obstructors}")
            continue
        blocked += 1
        if result.feasible:
            bad.append(f"case {cases}: sealed world planned anyway")
            continue
        if not result.obstructors:
            bad.append(f"case {cases}: blocked in-reach grasp reported nothing")
            continue
        cleared = replace(world, objects={
            oid: obj for oid, obj in world.objects.items()
            if oid not in result.obstructors})
        retry = plan_motion(cleared, *query)
        if not retry.feasible:
            bad.append(f"case {cases}: removing {result.obstructors} "
                       f"did not restore a path")
    ok = not bad and blocked > 0 and out_of_reach > 0
    report("AC4 removing the named obstructors always restores a path",
           ok, f"{blocked} blocked + {out_of_reach} out-of-reach cases"
               + ("" if not bad else "; " + "; ".join(bad[:3])))


def test_ac5_habitat_pipeline_with_runtime_rearrangement():
    start = time.perf_counter()
    res = run_scenario(gen_habitat())
    wall = time.perf_counter() - start
    problems = []
    if res.status is not FinalStatus.GOAL_ACHIEVED:
        problems.append(f"status {res.status.value}")
    growths = [e for e in res.trace
               if e["event"] == "expand" and e["reason"] == "motion_failure"]
    lids = sorted(oid for e in growths for oid in e["obstructors"])
    if lids != ["pink_1", "pink_2"]:
        problems.append(f"rearrangements grew for {lids}")
    for i in (1, 2):
        lid = res.world.objects[f"pink_{i}"]
        mouth = res.world.markers[f"mouth_{i}"]
        err = math.hypot(lid.x - mouth.x, lid.y - mouth.y)
        if err > 1e-6:
            problems.append(f"pink_{i} off its mouth by {err:.2e}")
    order = [e["action"] for e in res.trace if e["event"] == "step"]
    for i in (1, 2):
        if order.index(f"wait_sterilise_{i}") > order.index(f"wait_incubate_{i}"):
            problems.append(f"sample_{i} incubated before sterilising")
    if [m["module"] for m in res.metrics["modules"]] != list(MODULE_ROWS):
        problems.append("module rows wrong")
    if wall >= 60.0:
        problems.append(f"wall {wall:.1f}s")
    report("AC5 habitat run relocates both lids and finishes the pipeline",
           not problems,
           f"d={res.depth} moves={res.moves} wall={wall:.2f}s<60s"
           + ("" if not problems else "; " + "; ".join(problems)))


def test_ac6_masked_outputs_are_byte_identical_across_runs():
    pairs = []
    for make in (lambda: gen_hanoi(4), gen_habitat):
        first = run_scenario(make())
        second = run_scenario(make())
        pairs.append((first.metrics["scenario"],
                      masked_trace_text(first.trace) == masked_trace_text(second.trace),
                      masked_metrics_text(first.metrics)
                      == masked_metrics_text(second.metrics)))
    ok = all(t and m for _, t, m in pairs)
    report("AC6 repeat runs agree byte-for-byte once wall times are masked",
           ok, "; ".join(f"{name}: trace={t} metrics={m}" for name, t, m in pairs))


def test_ac7_every_plan_call_is_attributed_to_an_agent(monkeypatch):
    plan_calls = 0
    plan = interface.plan_motion

    def counting(*args):
        nonlocal plan_calls
        plan_calls += 1
        return plan(*args)

    monkeypatch.setattr(interface, "plan_motion", counting)
    notes = []
    ok = True
    runs = [("hanoi3_solo", gen_hanoi(3, omnipotent=True)),
            ("hanoi4_dual", gen_hanoi(4)),
            ("habitat", gen_habitat())]
    for name, scenario in runs:
        plan_calls = 0
        res = run_scenario(scenario)
        attributed = sum(res.metrics["attempts"].values())
        reported = res.metrics["plan_calls"]
        ok = ok and plan_calls > 0 and attributed == reported == plan_calls
        notes.append(f"{name}: {attributed}=={reported}=={plan_calls}")
    report("AC7 per-agent attempt counts add up to the plan calls made",
           ok, "; ".join(notes))


def test_ac8_scenario_text_round_trips_and_rejects_malformed():
    problems = []
    canonical = [gen_hanoi(3), gen_hanoi(5), gen_hanoi(4, omnipotent=True),
                 gen_habitat()]
    for path in (FIXTURES / "minimal.scn", FIXTURES / "hanoi3.scn"):
        canonical.append(parse(path.read_text()))
    for scn in canonical:
        text = serialize(scn)
        again = parse(text)
        if again != scn:
            problems.append(f"{scn.name}: parse(serialize) changed the scenario")
        if serialize(again) != text:
            problems.append(f"{scn.name}: serializer is not a fixpoint")
    fuzz_count = 100
    for seed in range(fuzz_count):
        scn = fuzz_scenario(seed)
        text = serialize(scn)
        if parse(text) != scn or serialize(parse(text)) != text:
            problems.append(f"fuzz seed {seed} failed round trip")
    malformed = sorted((FIXTURES / "malformed").glob("*.scn"))
    if len(malformed) < 10:
        problems.append("malformed corpus missing")
    for path in malformed:
        try:
            parse(path.read_text())
            problems.append(f"{path.name}: accepted")
        except DslError as exc:
            if exc.line < 1 or exc.col < 1 or not exc.message:
                problems.append(f"{path.name}: diagnostic not located")
        except Exception as exc:  # noqa: BLE001 - anything else is a bug
            problems.append(f"{path.name}: wrong error type {type(exc).__name__}")
    ok = not problems
    report("AC8 scenario text round-trips and malformed files fail with one "
           "located diagnostic",
           ok, f"{len(canonical)} canonical + {fuzz_count} fuzz + "
               f"{len(malformed)} malformed"
               + ("" if ok else "; " + "; ".join(problems[:4])))
