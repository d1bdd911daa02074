"""Random but always-valid scenario generator for round-trip testing."""

import random
from fractions import Fraction

from taskmotion.andor import GraphTemplate, HyperArc, NodeDecl, NodeKind
from taskmotion.domain import ActionTemplate, Condition, Fact, MotionClass, PredicateDecl
from taskmotion.dsl import AgentDecl, MarkerDecl, ObjDecl, Scenario


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
    return GraphTemplate.of(nodes, arcs)


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
        scn.objects[oid] = ObjDecl(
            oid, shape, dims, _coord(rng), _coord(rng), movable,
            yaw=round(rng.uniform(0, 1.5), 2) if rng.random() < 0.3 else 0.0,
            on=on, blocks=rng.choice(["all", "all", "arm", "base"]))
    for i in range(rng.randint(0, 3)):
        mid = f"k{i}"
        scn.markers[mid] = MarkerDecl(
            mid, _coord(rng), _coord(rng),
            snap=round(rng.uniform(0.02, 0.1), 2) if rng.random() < 0.5 else 0.04,
            handover=rng.random() < 0.3)
    scn.agents["a1"] = AgentDecl("a1", "arm", _coord(rng), _coord(rng),
                                 reach=round(rng.uniform(0.5, 1.5), 2))
    if rng.random() < 0.5:
        scn.agents["b1"] = AgentDecl("b1", "base", _coord(rng), _coord(rng),
                                     radius=round(rng.uniform(0.1, 0.3), 2))
        if rng.random() < 0.5:
            scn.agents["a2"] = AgentDecl(
                "a2", "arm", 0.0, 0.0, reach=round(rng.uniform(0.5, 1.5), 2),
                mount="b1", mount_dx=round(rng.uniform(-0.3, 0.3), 2),
                mount_dy=round(rng.uniform(-0.3, 0.3), 2))

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
