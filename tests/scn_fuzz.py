"""Random but always-valid scenario generator for round-trip testing."""

import random
from fractions import Fraction

from taskmotion.andor import GraphTemplate, HyperArc, NodeKind
from taskmotion.domain import ActionTemplate, Condition, Fact, MotionClass, PredicateDecl
from taskmotion.dsl import Scenario
from taskmotion.world import Agent, Marker, Obj
from graph_oracle import NodeDecl, template_of


def _coord(rng: random.Random) -> float:
    return round(rng.uniform(-0.9, 0.9), 2)


def _fact_pool(scn: Scenario, rng: random.Random) -> list[Fact]:
    objects = sorted(scn.objects)
    markers = sorted(scn.markers)
    entities = sorted(scn.entity_ids())
    pool = {Fact("carrying", ())}
    for oid in objects:
        pool.add(Fact("clear", (oid,)))
        pool.add(Fact("held", (oid,)))
        for other in objects:
            if other != oid:
                pool.add(Fact("on", (oid, other)))
        for marker in markers:
            pool.add(Fact("at", (oid, marker)))
    for name in sorted(scn.predicates):
        decl = scn.predicates[name]
        for _ in range(4):
            args = tuple(rng.choice(entities) for _ in range(decl.arity))
            pool.add(Fact(name, args))
    return sorted(pool)


def _random_template(rng: random.Random, pool: list[Fact],
                     action_names: list[str]) -> GraphTemplate:
    n_leaves = rng.randint(1, min(4, len(pool)))
    leaf_facts = rng.sample(pool, n_leaves)
    nodes = [NodeDecl(1, NodeKind.ROOT, "goal reached"),
             NodeDecl(2, NodeKind.FAILURE, "no option left")]
    leaf_ids = []
    next_id = 3
    for fact in leaf_facts:
        nodes.append(NodeDecl(next_id, NodeKind.LEAF, fact.text()))
        leaf_ids.append(next_id)
        next_id += 1
    internal_ids = []
    for i in range(rng.randint(0, 3)):
        nodes.append(NodeDecl(next_id, NodeKind.INTERNAL, f"step {i}"))
        internal_ids.append(next_id)
        next_id += 1

    def weight():
        return Fraction(rng.randint(0, 40), rng.choice([1, 1, 2, 4, 5, 10, 3, 7]))

    def tags():
        if not action_names or rng.random() < 0.5:
            return ()
        return tuple(rng.sample(action_names, rng.randint(1, min(2, len(action_names)))))

    arcs = [HyperArc(1, 1, (rng.choice(leaf_ids),), weight(), tags())]
    next_arc = 2
    for parent in internal_ids:
        for _ in range(rng.randint(0, 2)):
            children = tuple(sorted(rng.sample(leaf_ids, rng.randint(1, len(leaf_ids)))))
            arcs.append(HyperArc(next_arc, parent, children, weight(), tags()))
            next_arc += 1
    if internal_ids and rng.random() < 0.7:
        child = rng.choice(internal_ids)
        arcs.append(HyperArc(next_arc, 1, (child,), weight(), tags()))
    return template_of(nodes, arcs)


def fuzz_scenario(seed: int) -> Scenario:
    rng = random.Random(seed)
    scn = Scenario(name=f"fuzz_{seed}")
    scn.bounds = (-1.0, -1.0, 1.0, 1.0)

    for i in range(rng.randint(1, 6)):
        oid = f"e{i}"
        shape = rng.choice(["circle", "box"])
        dims = (round(rng.uniform(0.02, 0.1), 2),) if shape == "circle" else \
            (round(rng.uniform(0.05, 0.3), 2), round(rng.uniform(0.05, 0.3), 2))
        movable = rng.random() < 0.7
        on = None
        if movable and scn.objects and rng.random() < 0.25:
            on = rng.choice(sorted(scn.objects))
        scn.objects[oid] = Obj(
            oid, shape, dims, _coord(rng), _coord(rng), movable=movable,
            yaw=round(rng.uniform(0, 1.5), 2) if rng.random() < 0.3 else 0.0,
            stack_on=on, blocks=rng.choice(["all", "all", "arm", "base"]))
    for i in range(rng.randint(0, 3)):
        mid = f"k{i}"
        scn.markers[mid] = Marker(
            mid, _coord(rng), _coord(rng),
            snap=round(rng.uniform(0.02, 0.1), 2) if rng.random() < 0.5 else 0.04,
            handover=rng.random() < 0.3)
    scn.agents["a1"] = Agent("a1", "arm", anchor=(_coord(rng), _coord(rng)),
                             reach=round(rng.uniform(0.5, 1.5), 2))
    if rng.random() < 0.5:
        scn.agents["b1"] = Agent("b1", "base", anchor=(_coord(rng), _coord(rng)),
                                 radius=round(rng.uniform(0.1, 0.3), 2))
        if rng.random() < 0.5:
            scn.agents["a2"] = Agent(
                "a2", "arm", anchor=(0.0, 0.0), reach=round(rng.uniform(0.5, 1.5), 2),
                mount="b1", mount_off=(round(rng.uniform(-0.3, 0.3), 2),
                                       round(rng.uniform(-0.3, 0.3), 2)))

    for i in range(rng.randint(0, 3)):
        arity = rng.randint(0, 2)
        scn.predicates[f"p{i}"] = PredicateDecl(
            f"p{i}", arity, exclusive=arity >= 1 and rng.random() < 0.3)

    pool = _fact_pool(scn, rng)
    movables = [oid for oid, o in sorted(scn.objects.items()) if o.movable]
    for i in range(rng.randint(0, 4)):
        name = f"act{i}"
        klass = rng.choice([MotionClass.SYMBOLIC, MotionClass.WAIT, MotionClass.TRANSIT]
                           + ([MotionClass.TRANSFER, MotionClass.TRANSFER,
                               MotionClass.HANDOVER] if movables else []))
        pre = tuple(Condition(f, rng.random() < 0.3)
                    for f in rng.sample(pool, rng.randint(0, 2)))
        add = set(rng.sample(pool, rng.randint(0, 2)))
        rest = [f for f in pool if f not in add]
        delete = set(rng.sample(rest, rng.randint(0, min(2, len(rest)))))
        fields = {}
        if klass in (MotionClass.TRANSFER, MotionClass.HANDOVER):
            fields["manipulated"] = rng.choice(movables)
            fields["verb"] = rng.choice(["transfer", "grasp", "put"])
            # An object is never its own destination: it would rest on itself.
            dest_pool = sorted((set(scn.objects) | set(scn.markers))
                               - {fields["manipulated"]})
            if not dest_pool:
                fields["verb"] = "grasp"
            else:
                fields["dest"] = rng.choice(dest_pool)
                if rng.random() < 0.5:
                    fields["source"] = rng.choice(dest_pool)
        if klass is MotionClass.WAIT:
            fields["duration"] = rng.choice([5.0, 10.0, 30.5])
        if scn.markers and rng.random() < 0.4:
            fields["area"] = rng.choice(sorted(scn.markers))
        if rng.random() < 0.3:
            fields["agent"] = rng.choice(sorted(scn.agents))
        scn.actions[name] = ActionTemplate(
            name=name, motion_class=klass, preconditions=pre,
            effects_add=frozenset(add), effects_del=frozenset(delete), **fields)

    custom = [f for f in pool if f.predicate in scn.predicates]
    if custom:
        init = []
        for fact in rng.sample(custom, rng.randint(0, min(3, len(custom)))):
            # An exclusive predicate holds once per first argument: keep the first.
            if not (scn.predicates[fact.predicate].exclusive and any(
                    f.predicate == fact.predicate and f.args[0] == fact.args[0]
                    for f in init)):
                init.append(fact)
        scn.init = tuple(init)
    scn.goal = tuple(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
    action_names = sorted(scn.actions)
    scn.graph = _random_template(rng, pool, action_names)
    for i in range(rng.randint(0, 2)):
        scn.stages[f"stage_{i}"] = _random_template(rng, pool, action_names)
    return scn


def _leaf_and_arcs(scn: Scenario, arcs_of: list[tuple[str, tuple[str, ...], Fraction]],
                   root_label: str) -> GraphTemplate:
    """A graph whose root needs the scenario's goal facts and whose
    internal nodes each take one arc of `arcs_of`: (label, actions,
    weight), with the positive preconditions of its first action as leaves."""
    needs = [tuple(sorted(c.fact.text() for c in scn.actions[actions[0]].preconditions
                          if not c.negated))
             for _, actions, _ in arcs_of]
    labels = sorted({f.text() for f in scn.goal} | {t for need in needs for t in need})
    nodes = [NodeDecl(1, NodeKind.ROOT, root_label), NodeDecl(2, NodeKind.FAILURE, "stuck")]
    leaf = {label: i for i, label in enumerate(labels, start=3)}
    nodes += [NodeDecl(i, NodeKind.LEAF, label) for label, i in leaf.items()]
    arcs = [HyperArc(1, 1, tuple(sorted(leaf[f.text()] for f in scn.goal)), Fraction(0))]
    for i, ((label, actions, weight), need) in enumerate(zip(arcs_of, needs)):
        nid = len(nodes) + 1
        nodes.append(NodeDecl(nid, NodeKind.INTERNAL, label))
        arcs.append(HyperArc(i + 2, nid, tuple(sorted(leaf[t] for t in need)), weight, actions))
    return template_of(nodes, arcs)


def blocked_scenario(seed: int) -> Scenario:
    """A random valid scenario whose geometric steps movables cross.

    One arm, fixed or mounted on a base, carries one or two items from
    their start markers to goal markers. Movable blockers stand in the
    way: over a goal marker, in the one gap of a fixed fence between an
    item and its goal, stacked on an item, or on the floor near the
    carry. About half of the blockers have a `clear_<id>` stage that
    parks them at a random point, so obstruction diagnosis, rearrangement
    graphs and suppression all occur.
    """
    rng = random.Random(seed)
    scn = Scenario(name=f"blocked_{seed}")
    scn.bounds = (-1.0, -1.0, 1.0, 1.0)
    not_carrying = Condition(Fact("carrying", ()), negated=True)
    mobile = rng.random() < 0.3
    if mobile:
        scn.agents["cart"] = Agent("cart", "base", anchor=(round(rng.uniform(-0.2, 0.2), 2), -0.75),
                                   radius=round(rng.uniform(0.08, 0.14), 2))
        scn.agents["a1"] = Agent("a1", "arm", anchor=(0.0, 0.0), reach=round(rng.uniform(1.0, 1.2), 2),
                                 mount="cart", mount_off=(0.0, 0.1))
    else:
        scn.agents["a1"] = Agent("a1", "arm", anchor=(round(rng.uniform(-0.3, 0.3), 2), -0.85),
                                 reach=round(rng.uniform(1.8, 2.2), 2))

    arcs_of = []
    blockers = []  # (blocker id, x, y)
    fence = rng.random() < 0.5
    for i in range(rng.randint(1, 2)):
        item, start, goal = f"t{i}", f"s{i}", f"g{i}"
        sx, sy = round(rng.uniform(-0.8, -0.35), 2), round(rng.uniform(-0.3, 0.7), 2)
        gx, gy = round(rng.uniform(0.35, 0.8), 2), round(rng.uniform(-0.3, 0.7), 2)
        if i == 1:
            sx, gx = -sx, -gx  # the second item travels the other way
        scn.objects[item] = Obj(item, "circle", (round(rng.uniform(0.025, 0.05), 3),),
                                sx, sy, movable=True)
        scn.markers[start] = Marker(start, sx, sy)
        scn.markers[goal] = Marker(goal, gx, gy, snap=rng.choice([0.04, 0.06]))
        area = {}
        if mobile:
            dock = f"dock{i}"
            scn.markers[dock] = Marker(dock, round((sx + gx) / 2, 2),
                                           round(max((sy + gy) / 2 - 0.3, -0.6), 2), snap=0.05)
            area["area"] = dock
        at_start = Condition(Fact("at", (item, start)))
        if rng.random() < 0.6:
            name = f"move_{item}"
            scn.actions[name] = ActionTemplate(
                name, MotionClass.TRANSFER, (at_start, not_carrying), verb="transfer",
                manipulated=item, source=start, dest=goal, **area)
            arcs_of.append((f"{item} moved", (name,), Fraction(rng.randint(1, 3))))
        else:
            grasp, put = f"grasp_{item}", f"put_{item}"
            scn.actions[grasp] = ActionTemplate(
                grasp, MotionClass.TRANSFER, (at_start, not_carrying), verb="grasp",
                manipulated=item, source=start, **area)
            scn.actions[put] = ActionTemplate(
                put, MotionClass.TRANSFER, (Condition(Fact("held", (item,))),), verb="put",
                manipulated=item, dest=goal)
            if rng.random() < 0.5:
                arcs_of.append((f"{item} moved", (grasp, put), Fraction(2)))
            else:
                arcs_of += [(f"{item} taken", (grasp,), Fraction(1)),
                            (f"{item} placed", (put,), Fraction(1))]
        scn.goal += (Fact("at", (item, goal)),)

        for _ in range(rng.randint(1, 2)):
            bid = f"b{len(blockers)}"
            kind = rng.choice(["goal", "goal", "gap", "stack", "floor"])
            on = None
            if kind == "goal":
                x, y = round(gx + rng.uniform(-0.03, 0.03), 2), gy
            elif kind == "stack":
                x, y, on = sx, sy, item
            elif kind == "floor":
                u = rng.uniform(0.3, 0.7)
                x, y = round(sx + u * (gx - sx), 2), round(sy + u * (gy - sy), 2)
            else:  # gap: plug the gap of a fence across the carry, if there is one
                if not fence:
                    continue
                fence = False
                x, y = round(rng.uniform(-0.1, 0.1), 2), round(rng.uniform(-0.2, 0.6), 2)
                half = round(rng.uniform(0.1, 0.16), 2)
                for wid, lo, hi in ((f"fence{i}_s", -1.0, y - half),
                                    (f"fence{i}_n", y + half, 1.0)):
                    scn.objects[wid] = Obj(wid, "box", (0.04, round(hi - lo, 2)), x,
                                           round((lo + hi) / 2, 2), movable=False,
                                           blocks="arm")
            if kind in ("gap", "floor"):
                shape, dims = "box", (0.06, round(rng.uniform(0.2, 0.4), 2))
            else:
                shape, dims = "circle", (round(rng.uniform(0.03, 0.06), 3),)
            scn.objects[bid] = Obj(bid, shape, dims, x, y, movable=True, stack_on=on,
                                   blocks=rng.choice(["all", "arm"]))
            blockers.append((bid, x, y))

    for bid, x, y in blockers:
        if rng.random() < 0.5:
            continue
        home, park, name = f"h_{bid}", f"p_{bid}", f"relocate_{bid}"
        scn.markers[home] = Marker(home, x, y)
        scn.markers[park] = Marker(park, _coord(rng), _coord(rng))
        scn.actions[name] = ActionTemplate(
            name, MotionClass.TRANSFER,
            (Condition(Fact("at", (bid, home))), not_carrying), verb="transfer",
            manipulated=bid, source=home, dest=park)
        stage = Scenario(name="stage", goal=(Fact("at", (bid, park)),),
                         actions={name: scn.actions[name]})
        scn.stages[f"clear_{bid}"] = _leaf_and_arcs(stage, [(f"{bid} parked", (name,),
                                                              Fraction(1))], f"{bid} cleared")
    scn.graph = _leaf_and_arcs(scn, arcs_of, "items delivered")
    return scn
