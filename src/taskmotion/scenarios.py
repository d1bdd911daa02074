"""Built-in benchmark scenarios.

`gen_hanoi` builds a disk-stacking puzzle in two flavors. The omnipotent
variant has one long arm that reaches all three pegs. The dual-arm
variant gives each arm only two pegs plus a shared pad between them, and
omits direct far-peg-to-far-peg actions, so disks must be ferried across
through the pad: those moves are tagged as handovers.

The task graph enumerates every reachable stacking state. Each legal
move in each state becomes an internal node whose incoming arc requires
exactly the facts of that state; the arc from the root to that node is
weighted with the remaining optimal distance after the move. Minimal
cost solution extraction therefore plays an optimal game.

`gen_habitat` builds a two-tray laboratory: samples sit in walled trays
whose mouths are plugged by containers, get sterilised and incubated in
chambers on a west table, while glassware from a side table is cleaned
and shelved. The main graph deliberately leaves the containers alone;
only the relocation stages know how to move them, so clearing a tray
mouth requires the failure-driven expansion path. Restoring a container
to its exact original spot is part of the goal.
"""

from __future__ import annotations

from collections import deque

from .andor import GraphBuilder, GraphTemplate, NodeKind
from .domain import ActionTemplate, Condition, Fact, MotionClass, PredicateDecl
from .dsl import Scenario
from .world import DEFAULT_SNAP, Agent, Marker, Obj


class BadDiskCount(Exception):
    """Disk counts outside 3..8 are rejected."""


MIN_DISKS, MAX_DISKS = 3, 8

PEGS = ("pegA", "pegB", "pegC")
PAD = "pad"
PEG_POINTS = {"pegA": (0.0, 0.2), "pegB": (-0.3, 0.72), "pegC": (0.3, 0.72)}
# Far enough from peg A that a disk one size below the largest, carried by
# an arm, clears the largest disk on peg A for every disk count up to 8.
PAD_POINT = (0.0, 0.52)
HANOI_BOUNDS = (-1.1, -0.3, 1.1, 1.1)


def disk_radius(index: int) -> float:
    """Disk 1 is the smallest; radius grows with the index."""
    return round(0.030 + 0.015 * index, 9)


def _hanoi_slot_pairs(omnipotent: bool) -> tuple[tuple[str, str], ...]:
    if omnipotent:
        return tuple((a, b) for a in PEGS for b in PEGS if a != b)
    # No direct traffic between the far pegs; the pad bridges them. The
    # near peg talks to both far pegs but not to the pad.
    pairs = [("pegA", "pegB"), ("pegB", "pegA"), ("pegA", "pegC"),
             ("pegC", "pegA"), ("pegB", PAD), (PAD, "pegB"),
             ("pegC", PAD), (PAD, "pegC")]
    return tuple(pairs)


def _legal_moves(state: tuple[int, ...], slots: tuple[str, ...],
                 pairs: frozenset[tuple[str, str]]):
    """Yield (disk_index, target_slot_index) legal in this state.

    The pad is a transit point, never a parking spot: while any disk
    rests there, the only legal moves take that disk off again. This
    keeps every crossing a strict two-step ferry, so the two-arm game
    costs strictly more moves than the unrestricted one-arm game.
    """
    pad_index = slots.index(PAD) if PAD in slots else -1
    for disk in range(len(state)):
        src = state[disk]
        if any(state[j] == src for j in range(disk)):
            continue  # a smaller disk sits on top
        if pad_index >= 0 and src != pad_index and pad_index in state:
            continue  # a parked disk must move on before anything else
        for target in range(len(slots)):
            if target == src or (slots[src], slots[target]) not in pairs:
                continue
            if target == pad_index:
                pass  # the pad-empty rule above already cleared it
            elif any(state[j] == target for j in range(disk)):
                continue  # may not land on a smaller disk
            yield disk, target


def _hanoi_distances(n: int, slots: tuple[str, ...],
                     pairs: frozenset[tuple[str, str]],
                     goal_state: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Remaining-move counts for every state that can reach the goal."""
    dist = {goal_state: 0}
    queue = deque([goal_state])
    while queue:
        state = queue.popleft()
        for disk, target in _legal_moves(state, slots, pairs):
            nxt = state[:disk] + (target,) + state[disk + 1:]
            if nxt not in dist:
                dist[nxt] = dist[state] + 1
                queue.append(nxt)
    return dist


def _position_fact(disk_name: str, slot: str) -> Fact:
    if slot == PAD:
        return Fact("at", (disk_name, PAD))
    return Fact("at_peg", (disk_name, slot))


def gen_hanoi(n: int, omnipotent: bool = False) -> Scenario:
    if not MIN_DISKS <= n <= MAX_DISKS:
        raise BadDiskCount(f"disk count must be {MIN_DISKS}..{MAX_DISKS}, got {n}")
    slots = PEGS if omnipotent else PEGS + (PAD,)
    pairs = frozenset(_hanoi_slot_pairs(omnipotent))
    disks = [f"d{i}" for i in range(1, n + 1)]

    scn = Scenario(name=f"hanoi_{n}_{'solo' if omnipotent else 'dual'}")
    scn.bounds = HANOI_BOUNDS
    for peg in PEGS:
        x, y = PEG_POINTS[peg]
        scn.objects[peg] = Obj(peg, "circle", (0.028,), x, y, movable=False)
    ax, ay = PEG_POINTS["pegA"]
    for i, disk in enumerate(disks, start=1):
        support = PEGS[0] if i == n else disks[i]  # d_n sits on the peg
        scn.objects[disk] = Obj(disk, "circle", (disk_radius(i),), ax, ay,
                                movable=True, stack_on=support)
    if omnipotent:
        scn.agents["arm_solo"] = Agent("arm_solo", "arm", anchor=(0.0, 0.45), reach=2.0)
    else:
        scn.markers[PAD] = Marker(PAD, PAD_POINT[0], PAD_POINT[1], handover=True)
        scn.agents["arm_left"] = Agent("arm_left", "arm", anchor=(-0.3, 0.0), reach=0.75)
        scn.agents["arm_right"] = Agent("arm_right", "arm", anchor=(0.3, 0.0), reach=0.75)

    goal_chain = [Fact("on", (disks[-1], "pegC"))]
    for upper, lower in zip(disks, disks[1:]):
        goal_chain.append(Fact("on", (upper, lower)))
    scn.goal = tuple(goal_chain)

    # Move actions, one per (disk, source, target) the slot graph allows.
    for disk_index, disk in enumerate(disks):
        for src, dst in sorted(pairs):
            pre = [Condition(Fact("clear", (disk,))),
                   Condition(_position_fact(disk, src)),
                   Condition(Fact("carrying", ()), negated=True)]
            if not omnipotent:
                # The pad must be free of every other disk, whatever the move.
                pre.extend(Condition(Fact("at", (other, PAD)), negated=True)
                           for other in disks if other != disk)
            if dst != PAD:
                pre.extend(Condition(_position_fact(other, dst), negated=True)
                           for other in disks[:disk_index])
            klass = MotionClass.HANDOVER if PAD in (src, dst) else MotionClass.TRANSFER
            name = f"move_{disk}_{src}_{dst}"
            scn.actions[name] = ActionTemplate(
                name=name, motion_class=klass, verb="transfer", manipulated=disk,
                source=src, dest=dst, preconditions=tuple(pre))

    scn.graph = _hanoi_graph(n, slots, pairs, disks, scn.goal)
    return scn


def _hanoi_graph(n: int, slots: tuple[str, ...], pairs: frozenset,
                 disks: list[str], goal_chain: tuple[Fact, ...]) -> GraphTemplate:
    goal_state = tuple(slots.index("pegC") for _ in disks)
    dist = _hanoi_distances(n, slots, pairs, goal_state)

    leaf_labels = sorted(
        {_position_fact(disk, slot).text() for disk in disks for slot in slots}
        | {fact.text() for fact in goal_chain})
    graph = GraphBuilder()
    graph.node(1, NodeKind.ROOT, "all disks stacked on the goal peg")
    graph.node(2, NodeKind.FAILURE, "no move helps")
    leaf_id = {}
    next_id = 3
    for label in leaf_labels:
        leaf_id[label] = next_id
        graph.node(next_id, NodeKind.LEAF, label)
        next_id += 1

    graph.arc(1, 1, sorted(leaf_id[f.text()] for f in goal_chain), 0)
    arc_id = 2
    for state in sorted(dist):
        state_leaves = sorted(leaf_id[_position_fact(disks[i], slots[state[i]]).text()]
                              for i in range(n))
        for disk, target in sorted(_legal_moves(state, slots, pairs)):
            nxt = state[:disk] + (target,) + state[disk + 1:]
            action = f"move_{disks[disk]}_{slots[state[disk]]}_{slots[target]}"
            graph.node(next_id, NodeKind.INTERNAL,
                       f"state {','.join(map(str, state))} then {action}")
            graph.arc(arc_id, next_id, state_leaves, 1, 1, (action,))
            arc_id += 1
            graph.arc(arc_id, 1, (next_id,), dist[nxt])
            arc_id += 1
            next_id += 1
    return graph.template()


# --------------------------------------------------------------- habitat


HABITAT_BOUNDS = (-1.6, -0.6, 1.6, 1.5)
TRAY_X = {1: -0.3, 2: 0.3}
STAGE_POINTS = {1: (-0.58, 1.16), 2: (0.58, 1.16)}
BENCH_POINTS = {1: (-0.08, 1.08), 2: (0.08, 1.08)}
STER_POINTS = {1: (-1.22, 0.38), 2: (-1.22, 0.22)}
HEAT_POINTS = {1: (-1.22, -0.14), 2: (-1.22, -0.30)}
SIDE_POINTS = {1: (1.1, 0.2), 2: (1.2, 0.3)}
APPROACH_POINTS = {"base_bench": (0.0, 0.62), "base_bench_east": (0.35, 0.62),
                   "base_west": (-0.62, 0.1), "base_side": (1.3, -0.34)}


def gen_habitat() -> Scenario:
    scn = Scenario(name="habitat")
    scn.bounds = HABITAT_BOUNDS

    def fixed(oid, w, h, x, y, blocks):
        scn.objects[oid] = Obj(oid, "box", (w, h), x, y, movable=False, blocks=blocks)

    fixed("workbench", 1.6, 0.4, 0.0, 1.2, "base")
    fixed("west_table", 0.5, 1.05, -1.15, 0.025, "base")
    fixed("side_table", 0.5, 0.6, 1.15, 0.2, "base")
    for i in (1, 2):
        x = TRAY_X[i]
        fixed(f"tray{i}_wall_w", 0.04, 0.2, round(x - 0.14, 9), 1.26, "arm")
        fixed(f"tray{i}_wall_e", 0.04, 0.2, round(x + 0.14, 9), 1.26, "arm")
        fixed(f"tray{i}_wall_back", 0.32, 0.04, x, 1.38, "arm")
    fixed("ster_wall_n", 0.20, 0.04, -1.24, 0.50, "arm")
    fixed("ster_wall_s", 0.20, 0.04, -1.24, 0.10, "arm")
    fixed("ster_wall_back", 0.04, 0.44, -1.32, 0.30, "arm")
    fixed("heat_wall_n", 0.20, 0.04, -1.24, -0.02, "arm")
    fixed("heat_wall_s", 0.20, 0.04, -1.24, -0.42, "arm")
    fixed("heat_wall_back", 0.04, 0.44, -1.32, -0.22, "arm")

    for i in (1, 2):
        x = TRAY_X[i]
        scn.objects[f"sample_{i}"] = Obj(f"sample_{i}", "circle", (0.03,),
                                         x, 1.28, movable=True, blocks="arm")
        scn.objects[f"pink_{i}"] = Obj(f"pink_{i}", "box", (0.16, 0.08),
                                       x, 1.18, movable=True, blocks="arm")
        gx, gy = SIDE_POINTS[i]
        scn.objects[f"glass_{i}"] = Obj(f"glass_{i}", "circle", (0.035,),
                                        gx, gy, movable=True, blocks="arm")

    def marker(mid, point, snap=DEFAULT_SNAP):
        scn.markers[mid] = Marker(mid, point[0], point[1], snap=snap)

    for i in (1, 2):
        marker(f"tray_{i}", (TRAY_X[i], 1.28))
        marker(f"mouth_{i}", (TRAY_X[i], 1.18))
        marker(f"stage_{i}", STAGE_POINTS[i])
        marker(f"bench_{i}", BENCH_POINTS[i])
        marker(f"ster_{i}", STER_POINTS[i])
        marker(f"heat_{i}", HEAT_POINTS[i])
        marker(f"side_{i}", SIDE_POINTS[i])
    for mid, point in APPROACH_POINTS.items():
        marker(mid, point, snap=0.05)

    scn.agents["base_main"] = Agent("base_main", "base", anchor=(0.0, 0.0), radius=0.22)
    scn.agents["arm_left"] = Agent("arm_left", "arm", anchor=(-0.25, 0.05), reach=0.65,
                                   mount="base_main", mount_off=(-0.25, 0.05))
    scn.agents["arm_right"] = Agent("arm_right", "arm", anchor=(0.25, 0.05), reach=0.65,
                                    mount="base_main", mount_off=(0.25, 0.05))

    for name in ("sterilised", "incubated", "cleaned"):
        scn.predicates[name] = PredicateDecl(name, 1)

    def cond(fact_text, negated=False):
        return Condition(Fact.parse(fact_text), negated)

    def action(name, klass, pre, add=(), **kw):
        scn.actions[name] = ActionTemplate(
            name=name, motion_class=klass, preconditions=tuple(pre),
            effects_add=frozenset(add), **kw)

    main_order = []
    for i in (1, 2):
        s, g = f"sample_{i}", f"glass_{i}"
        action(f"grasp_sample_{i}", MotionClass.TRANSFER,
               [cond(f"at {s} tray_{i}"), cond("carrying", True)],
               verb="grasp", manipulated=s,
               area="base_bench" if i == 1 else "base_bench_east")
        action(f"put_sample_ster_{i}", MotionClass.TRANSFER,
               [cond(f"held {s}"), cond(f"sterilised {s}", True)],
               verb="put", manipulated=s, dest=f"ster_{i}", area="base_west")
        action(f"wait_sterilise_{i}", MotionClass.WAIT,
               [cond(f"at {s} ster_{i}"), cond(f"sterilised {s}", True)],
               add=[Fact("sterilised", (s,))], duration=30.0)
        action(f"grasp_sample_ster_{i}", MotionClass.TRANSFER,
               [cond(f"at {s} ster_{i}"), cond(f"sterilised {s}"),
                cond("carrying", True)],
               verb="grasp", manipulated=s, area="base_west")
        action(f"put_sample_heat_{i}", MotionClass.TRANSFER,
               [cond(f"held {s}"), cond(f"sterilised {s}")],
               verb="put", manipulated=s, dest=f"heat_{i}", area="base_west")
        action(f"wait_incubate_{i}", MotionClass.WAIT,
               [cond(f"at {s} heat_{i}"), cond(f"sterilised {s}"),
                cond(f"incubated {s}", True)],
               add=[Fact("incubated", (s,))], duration=60.0)
        main_order.extend([f"grasp_sample_{i}", f"put_sample_ster_{i}",
                           f"wait_sterilise_{i}", f"grasp_sample_ster_{i}",
                           f"put_sample_heat_{i}", f"wait_incubate_{i}"])
    for i in (1, 2):
        s, g = f"sample_{i}", f"glass_{i}"
        action(f"grasp_glass_{i}", MotionClass.TRANSFER,
               [cond(f"at {g} side_{i}"), cond("carrying", True)],
               verb="grasp", manipulated=g, area="base_side")
        action(f"put_glass_ster_{i}", MotionClass.TRANSFER,
               [cond(f"held {g}"), cond(f"at {s} ster_{i}", True),
                cond(f"cleaned {g}", True)],
               verb="put", manipulated=g, dest=f"ster_{i}", area="base_west")
        action(f"wait_clean_{i}", MotionClass.WAIT,
               [cond(f"at {g} ster_{i}"), cond(f"cleaned {g}", True)],
               add=[Fact("cleaned", (g,))], duration=20.0)
        action(f"grasp_glass_ster_{i}", MotionClass.TRANSFER,
               [cond(f"at {g} ster_{i}"), cond(f"cleaned {g}"),
                cond("carrying", True)],
               verb="grasp", manipulated=g, area="base_west")
        action(f"put_glass_bench_{i}", MotionClass.TRANSFER,
               [cond(f"held {g}"), cond(f"cleaned {g}")],
               verb="put", manipulated=g, dest=f"bench_{i}", area="base_bench")
        main_order.extend([f"grasp_glass_{i}", f"put_glass_ster_{i}",
                           f"wait_clean_{i}", f"grasp_glass_ster_{i}",
                           f"put_glass_bench_{i}"])
    for i in (1, 2):
        s, p = f"sample_{i}", f"pink_{i}"
        action(f"relocate_pink_{i}", MotionClass.TRANSFER,
               [cond(f"at {p} mouth_{i}"), cond("carrying", True)],
               verb="transfer", manipulated=p, source=f"mouth_{i}",
               dest=f"stage_{i}", area="base_bench")
        action(f"restore_pink_{i}", MotionClass.TRANSFER,
               [cond(f"at {p} stage_{i}"), cond(f"at {s} tray_{i}", True),
                cond("carrying", True)],
               verb="transfer", manipulated=p, source=f"stage_{i}",
               dest=f"mouth_{i}", area="base_bench")
        main_order.append(f"restore_pink_{i}")

    scn.goal = tuple(
        [Fact("incubated", (f"sample_{i}",)) for i in (1, 2)]
        + [Fact("at", (f"glass_{i}", f"bench_{i}")) for i in (1, 2)]
        + [Fact("at", (f"pink_{i}", f"mouth_{i}")) for i in (1, 2)])

    scn.graph = _habitat_graph(scn, main_order)
    for i in (1, 2):
        scn.stages[f"clear_pink_{i}"] = _clear_stage(i)
    return scn


def _habitat_graph(scn: Scenario, main_order: list[str]) -> GraphTemplate:
    """Action-level graph: one internal node per pipeline action, arcs in
    pipeline order so that cheapest-arc fallback walks the pipeline."""
    leaf_labels = set(f.text() for f in scn.goal)
    for name in main_order:
        for condition in scn.actions[name].preconditions:
            if not condition.negated:
                leaf_labels.add(condition.fact.text())
    graph = GraphBuilder()
    graph.node(1, NodeKind.ROOT, "laboratory routine finished")
    graph.node(2, NodeKind.FAILURE, "routine stuck")
    leaf_id = {}
    next_id = 3
    for label in sorted(leaf_labels):
        leaf_id[label] = next_id
        graph.node(next_id, NodeKind.LEAF, label)
        next_id += 1
    graph.arc(1, 1, sorted(leaf_id[f.text()] for f in scn.goal), 0)
    arc_id = 2
    for name in main_order:
        action = scn.actions[name]
        children = sorted({leaf_id[c.fact.text()]
                           for c in action.preconditions if not c.negated})
        graph.node(next_id, NodeKind.INTERNAL, f"{name} done")
        graph.arc(arc_id, next_id, children, 1, 1, (name,))
        next_id += 1
        arc_id += 1
    return graph.template()


def _clear_stage(i: int) -> GraphTemplate:
    graph = GraphBuilder()
    graph.node(1, NodeKind.ROOT, f"tray {i} mouth free")
    graph.node(2, NodeKind.FAILURE, "cannot move the container")
    graph.node(3, NodeKind.LEAF, f"at pink_{i} mouth_{i}")
    graph.arc(1, 1, (3,), 1, 1, (f"relocate_pink_{i}",))
    return graph.template()
