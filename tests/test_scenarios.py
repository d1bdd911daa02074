"""Generator checks for the built-in benchmarks.

The disk-puzzle oracle here is an independent forward search over a
stack-of-disks representation, deliberately different from the
generator's slot-assignment encoding, so move counts are cross-checked
by two unrelated pieces of code.
"""

import math
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest

from taskmotion.andor import NodeKind, build_graph
from taskmotion.dsl import parse, serialize
from taskmotion.interface import dispatch, ground
from taskmotion.planner import FinalStatus, RunConfig, run_scenario
from taskmotion.scenarios import (
    MAX_DISKS,
    MIN_DISKS,
    PAD,
    PEGS,
    BadDiskCount,
    _hanoi_distances,
    _hanoi_slot_pairs,
    disk_radius,
    gen_habitat,
    gen_hanoi,
)
from taskmotion.world import (
    ARM_POINT_RADIUS,
    DEFAULT_CLEARANCE,
    snapshot,
    world_from_scenario,
)
from graph_oracle import arcs_of

FIXTURES = Path(__file__).parent / "fixtures"


def oracle_min_moves(n: int, with_pad: bool) -> int:
    """Forward BFS over explicit stacks; disks are ints, 1 is smallest."""
    slot_names = list(PEGS) + ([PAD] if with_pad else [])
    if with_pad:
        allowed = {("pegA", "pegB"), ("pegB", "pegA"), ("pegA", "pegC"),
                   ("pegC", "pegA"), ("pegB", PAD), (PAD, "pegB"),
                   ("pegC", PAD), (PAD, "pegC")}
    else:
        allowed = {(a, b) for a in PEGS for b in PEGS if a != b}
    start = (tuple(range(n, 0, -1)),) + ((),) * (len(slot_names) - 1)
    goal = ((), (), tuple(range(n, 0, -1))) + (((),) if with_pad else ())

    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        stacks, depth = queue.popleft()
        if stacks == goal:
            return depth
        pad_busy = with_pad and bool(stacks[3])
        for si, src in enumerate(stacks):
            if not src:
                continue
            if pad_busy and slot_names[si] != PAD:
                continue  # a disk on the pad must move on first
            disk = src[-1]
            for ti in range(len(stacks)):
                if ti == si or (slot_names[si], slot_names[ti]) not in allowed:
                    continue
                dst = stacks[ti]
                if slot_names[ti] == PAD:
                    if dst:
                        continue
                elif dst and dst[-1] < disk:
                    continue
                nxt = list(stacks)
                nxt[si] = src[:-1]
                nxt[ti] = dst + (disk,)
                nxt = tuple(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, depth + 1))
    raise AssertionError("goal unreachable")


@pytest.mark.parametrize("n", [2, 9, 0])
def test_bad_disk_count(n):
    with pytest.raises(BadDiskCount):
        gen_hanoi(n)


@pytest.mark.parametrize("n", [3, 4])
def test_solo_oracle_matches_closed_form(n):
    assert oracle_min_moves(n, with_pad=False) == 2 ** n - 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generator_distances_match_oracle(n):
    for omnipotent in (True, False):
        slots = PEGS if omnipotent else PEGS + (PAD,)
        pairs = frozenset(_hanoi_slot_pairs(omnipotent))
        goal_state = tuple(slots.index("pegC") for _ in range(n))
        dist = _hanoi_distances(n, slots, pairs, goal_state)
        init_state = tuple(slots.index("pegA") for _ in range(n))
        assert dist[init_state] == oracle_min_moves(n, with_pad=not omnipotent)


def test_dual_optimum_exceeds_classic_and_grows():
    previous = 0
    for n in (3, 4, 5):
        moves = oracle_min_moves(n, with_pad=True)
        assert moves > 2 ** n - 1
        assert moves >= previous
        previous = moves


def test_solo_graph_structure():
    scn = gen_hanoi(3, omnipotent=True)
    graph = build_graph(scn.graph)
    leaves = [n for n in graph.nodes.values() if n.kind is NodeKind.LEAF]
    # 3 disks x 3 pegs position leaves plus the 3 goal stacking leaves.
    assert len(leaves) == 12
    goal_arc = graph.arcs_into(graph.root)[0]
    assert goal_arc.id == 1 and goal_arc.weight == Fraction(0)
    # One action node and one root arc per (state, legal move) pair.
    internals = [n for n in graph.nodes.values() if n.kind is NodeKind.INTERNAL]
    root_arcs = graph.arcs_into(graph.root)
    assert len(root_arcs) == len(internals) + 1
    for arc in root_arcs[1:]:
        assert len(arc.children) == 1 and arc.weight >= 0


def test_solo_root_arcs_rank_the_opening_moves():
    scn = gen_hanoi(3, omnipotent=True)
    graph = build_graph(scn.graph)
    by_label = {n.label: n.id for n in graph.nodes.values()}
    opening = {}
    for arc in graph.arcs_into(graph.root)[1:]:
        node = graph.nodes[arc.children[0]]
        if node.label.startswith("state 0,0,0 "):
            move = node.label.split(" then ")[1]
            opening[move] = arc.weight
    # Only the smallest disk can move first; toward the goal peg leaves
    # the 6-move continuation, away from it costs one extra.
    assert opening == {"move_d1_pegA_pegB": Fraction(7),
                       "move_d1_pegA_pegC": Fraction(6)}
    assert by_label["at_peg d1 pegA"]


def test_dual_move_catalog():
    scn = gen_hanoi(3)
    crossings = [name for name in scn.actions
                 if "pegB_pegC" in name or "pegC_pegB" in name]
    assert crossings == []
    pad_direct = [name for name in scn.actions
                  if "pegA_pad" in name or "pad_pegA" in name]
    assert pad_direct == []
    for name, action in scn.actions.items():
        if PAD in name.split("_"):
            assert action.motion_class.value == "handover", name
        else:
            assert action.motion_class.value == "transfer", name


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("omnipotent", [True, False])
def test_hanoi_roundtrip(n, omnipotent):
    scn = gen_hanoi(n, omnipotent=omnipotent)
    text = serialize(scn)
    again = parse(text)
    assert again == scn
    assert serialize(again) == text


def test_hanoi_fixture_is_current():
    expected = serialize(gen_hanoi(3))
    assert (FIXTURES / "hanoi3.scn").read_text() == expected


@pytest.mark.parametrize("n", range(MIN_DISKS, MAX_DISKS + 1))
def test_the_pad_takes_the_second_largest_disk_beside_the_largest_on_any_peg(n):
    """The pad's goal cell lies outside the largest disk's footprint on
    every peg, inflated as the world inflates it for an arm carrying the
    next largest disk, so that disk can always be put on the pad."""
    world = world_from_scenario(gen_hanoi(n))
    res, pad = world.resolution, world.markers[PAD]
    cx, cy = round(pad.x / res) * res, round(pad.y / res) * res  # the goal cell's centre
    reach = disk_radius(n) + DEFAULT_CLEARANCE + ARM_POINT_RADIUS + disk_radius(n - 1)
    for peg in PEGS:
        peg_obj = world.objects[peg]
        assert math.hypot(cx - peg_obj.x, cy - peg_obj.y) > reach, (n, peg)


@pytest.mark.parametrize("seed", [35, 44, 56])
def test_hanoi_6_dual_reaches_the_goal_where_the_earlier_pad_failed(seed):
    """With the pad at (0, 0.45) these seeds ended unsolvable after 33
    moves: the pad could not take d4 while d6 sat on peg A."""
    result = run_scenario(gen_hanoi(6), RunConfig(seed=seed))
    assert (result.status, result.moves) == (FinalStatus.GOAL_ACHIEVED, 84)


def test_hanoi_solo_first_move_executes():
    scn = gen_hanoi(3, omnipotent=True)
    world = world_from_scenario(scn)
    state = snapshot(world)
    assert any(f.text() == "at_peg d1 pegA" for f in state.facts)
    move = scn.actions["move_d1_pegA_pegC"]
    result = dispatch(world, ground(world, (move,)))
    assert result.ok
    after = snapshot(result.world)
    assert any(f.text() == "at_peg d1 pegC" for f in after.facts)
    assert any(f.text() == "clear d2" for f in after.facts)


def test_habitat_roundtrip():
    scn = gen_habitat()
    text = serialize(scn)
    again = parse(text)
    assert again == scn
    assert serialize(again) == text


def test_habitat_structure():
    scn = gen_habitat()
    assert len(scn.actions) == 26
    build_graph(scn.graph)
    for stage in scn.stages.values():
        build_graph(stage)
    assert set(scn.stages) == {"clear_pink_1", "clear_pink_2"}
    # The main graph drives every action except the stage-only relocations.
    graph_actions = {a for arc in arcs_of(scn.graph) for a in arc.actions}
    assert graph_actions == set(scn.actions) - {"relocate_pink_1", "relocate_pink_2"}
    # Relocations keep their dedicated arc in the stages.
    stage_actions = {a for tpl in scn.stages.values()
                     for arc in arcs_of(tpl) for a in arc.actions}
    assert stage_actions == {"relocate_pink_1", "relocate_pink_2"}
    restore_arcs = [arc for arc in arcs_of(scn.graph)
                    if arc.actions and arc.actions[0].startswith("restore_")]
    other_arcs = [arc for arc in arcs_of(scn.graph)
                  if not arc.actions or not arc.actions[0].startswith("restore_")]
    assert min(a.id for a in restore_arcs) > max(a.id for a in other_arcs)


def test_habitat_first_grasp_blocked_by_container():
    scn = gen_habitat()
    world = world_from_scenario(scn)
    grasp = scn.actions["grasp_sample_1"]
    result = dispatch(world, ground(world, (grasp,)))
    assert not result.ok
    assert result.failure.kind == "motion"
    assert result.failure.obstructors == ("pink_1",)
    # The base travel leg still went through before the arm gave up.
    assert any(s.action.startswith("approach_") for s in result.steps)


def test_habitat_relocation_unblocks_and_restores_exactly():
    scn = gen_habitat()
    world = world_from_scenario(scn)
    run = [scn.actions["relocate_pink_1"], scn.actions["grasp_sample_1"],
           scn.actions["put_sample_ster_1"], scn.actions["restore_pink_1"]]
    for action in run:
        result = dispatch(world, ground(world, (action,)))
        assert result.ok, f"{action.name}: {result.failure}"
        world = result.world
    pink = world.objects["pink_1"]
    mouth = scn.markers["mouth_1"]
    assert abs(pink.x - mouth.x) < 1e-6 and abs(pink.y - mouth.y) < 1e-6
    facts = {f.text() for f in snapshot(world).facts}
    assert "at pink_1 mouth_1" in facts
    assert "at sample_1 ster_1" in facts
