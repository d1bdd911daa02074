"""Scenario language tests: round trips, canonical form, diagnostics."""

import functools
import gc
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskmotion import dsl, world
from taskmotion.domain import Fact, InvalidState, MotionClass
from taskmotion.dsl import (
    DslError,
    LexError,
    ParseError,
    ResolveError,
    parse,
    parse_file,
    serialize,
)
from taskmotion.planner import FinalStatus, RunConfig, run_scenario
from taskmotion.scenarios import gen_habitat, gen_hanoi
import line_oracle
from graph_oracle import arcs_of, nodes_of
from scn_fuzz import fuzz_scenario

FIXTURES = Path(__file__).parent / "fixtures"


def read(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_minimal_fixture_is_canonical():
    raw = read("minimal.scn")
    assert serialize(parse(raw)) == raw


def test_parse_serialize_fixpoint():
    scn = parse(read("minimal.scn"))
    text = serialize(scn)
    again = parse(text)
    assert again == scn
    assert serialize(again) == text


def test_minimal_fixture_contents():
    scn = parse(read("minimal.scn"))
    assert scn.name == "minimal"
    assert scn.bounds == (-0.5, -0.5, 0.5, 0.5)
    assert scn.objects["cup"].movable
    assert scn.objects["table"].blocks == "base"
    assert scn.markers["pad"].handover
    assert scn.markers["pad"].snap == pytest.approx(0.05)
    assert scn.agents["lifter"].reach == pytest.approx(0.6)
    assert scn.actions["park"].dest == "pad"
    assert scn.actions["park"].preconditions[0].negated
    assert Fact("polished", ("table",)) in scn.init
    assert scn.goal == (Fact("at", ("cup", "pad")),)
    assert scn.graph.root == 1
    assert arcs_of(scn.graph)[1].weight == Fraction(1, 2)
    assert arcs_of(scn.stages["clear_cup"])[0].weight == Fraction(2, 3)


def test_a_mounted_arm_keeps_its_declared_point_and_is_placed_on_its_base():
    """The scenario keeps an arm's declared `at` point through a round trip;
    the world places the arm at its base's declared point plus its offset,
    and holds the scenario's own objects."""
    raw = read("minimal.scn").replace(
        "obj cup circle 0.04 at 0.2 0.2 movable\n",
        "obj cup circle 0.04 at 0.2 0.2 movable on table\n").replace(
        "arm lifter at 0 0 reach 0.6\n",
        "base cart at 0.3 -0.2 radius 0.1\n"
        "arm lifter at 0.1 0.1 reach 0.6 mount cart offset -0.25 0.05\n")
    scn = parse(raw)
    again = parse(serialize(scn))
    assert again == scn
    assert again.agents["lifter"].anchor == (0.1, 0.1)
    assert again.agents["lifter"].mount_off == (-0.25, 0.05)

    initial = world.world_from_scenario(scn)
    placed = (0.3 + -0.25, -0.2 + 0.05)
    assert initial.agents["lifter"].anchor == placed
    assert initial.agents["lifter"].config == placed
    assert initial.agents["cart"].anchor == initial.agents["cart"].config == (0.3, -0.2)
    assert initial.objects.keys() == scn.objects.keys()
    for oid, obj in initial.objects.items():
        assert obj is scn.objects[oid]
        assert obj.on == obj.stack_on
    assert initial.objects["cup"].on == "table"


def test_fact_order_does_not_matter():
    raw = read("minimal.scn")
    swapped = raw.replace(
        'arc 1 parent 1 children 3 weight 1 actions park',
        'arc 1 parent 1 children 3 weight 1 actions park').replace(
        "INIT\npolished table", "INIT\npolished table")
    assert parse(swapped) == parse(raw)


def test_internal_labels_roundtrip_escapes():
    raw = read("minimal.scn").replace(
        'node 1 root "cup parked"',
        'node 1 root "say \\"hi\\" \\\\ done"')
    scn = parse(raw)
    root_label = next(n.label for n in nodes_of(scn.graph) if n.id == 1)
    assert root_label == 'say "hi" \\ done'
    assert parse(serialize(scn)) == scn


def test_comments_and_blank_lines_ignored():
    raw = read("minimal.scn")
    noisy = raw.replace("OBJECTS\n", "OBJECTS\n# a comment\n\n")
    assert parse(noisy) == parse(raw)


def test_fraction_weights_survive():
    scn = parse(read("minimal.scn"))
    text = serialize(scn)
    assert "weight 2/3" in text
    assert arcs_of(parse(text).stages["clear_cup"])[0].weight == Fraction(2, 3)


@pytest.mark.parametrize("moved", ['node 3 leaf "at d1 pad"',
                                   "arc 2 parent 18 children 6 9 12 weight 1 actions "
                                   "move_d1_pegA_pegB"], ids=["node", "arc"])
def test_templates_are_equal_whatever_their_declaration_order(moved):
    lines = read("hanoi3.scn").splitlines()
    lines.remove(moved)
    reordered = parse("\n".join(lines + [moved]))
    text = serialize(reordered)
    assert parse(text) == reordered and serialize(parse(text)) == text
    assert parse(text) == parse(read("hanoi3.scn"))
    heavier = "\n".join(lines + [moved]).replace(" weight 10\n", " weight 11\n", 1)
    assert parse(heavier).graph != reordered.graph


def test_a_verb_on_an_action_that_moves_nothing_round_trips():
    raw = read("minimal.scn")
    assert "action buff symbolic\n" in raw
    scn = parse(raw.replace("action buff symbolic\n", "action buff symbolic\n  verb put\n"))
    assert scn.actions["buff"].verb == "put"
    assert parse(serialize(scn)) == scn
    assert serialize(parse(raw)) == raw  # the default verb of a symbolic action is not written


def test_values_beyond_64_bits_parse_and_solve():
    big = 10**20
    root = read("hanoi3.scn").replace('node 1 root', f'node {big} root').replace(
        "parent 1 children", f"parent {big} children")
    lines = read("hanoi3.scn").splitlines()
    arcs = [i for i, line in enumerate(lines) if line.startswith("arc ")][:3]
    for i in arcs:
        lines[i] = re.sub(r"weight \S+", f"weight {10**23}", lines[i])
    for text in (root, "\n".join(lines)):
        scn = parse(text)
        assert object in (scn.graph.ids.dtype, scn.graph.weight_num.dtype)
        assert parse(serialize(scn)) == scn
        result = run_scenario(scn, RunConfig(seed=0))
        assert (result.status, result.moves) == (FinalStatus.GOAL_ACHIEVED, 9)
    with pytest.raises(ParseError) as info:
        parse_file(FIXTURES / "malformed" / "m16_huge_number.scn")
    assert info.value.message == "number has too many digits"


MALFORMED = [
    ("m01_bad_char.scn", LexError, 5, 6),
    ("m02_unterminated_string.scn", LexError, 7, 13),
    ("m03_missing_end.scn", ParseError, 6, 1),
    ("m04_bad_keyword.scn", ParseError, 4, 9),
    ("m05_dup_entity.scn", ParseError, 5, 8),
    ("m06_negative_weight.scn", ParseError, 11, 34),
    ("m07_unknown_action_ref.scn", ResolveError, 11, 1),
    ("m08_unknown_predicate.scn", ResolveError, 6, 1),
    ("m09_arity_mismatch.scn", ResolveError, 8, 1),
    ("m10_cycle.scn", ResolveError, None, None),
    ("m11_derived_in_init.scn", ResolveError, 6, 1),
    ("m12_missing_bounds.scn", ResolveError, 11, 1),
    ("m13_two_roots.scn", ResolveError, 7, 1),
    ("m14_missing_goal.scn", ResolveError, 10, 1),
    ("m15_decimal_fraction_weight.scn", ParseError, 11, 34),
    ("m16_huge_number.scn", ParseError, 10, 6),
    ("m17_exclusive_conflict.scn", ResolveError, 11, 1),
    ("m18_unknown_child.scn", ResolveError, 12, 1),
    ("m19_huge_bounds.scn", ParseError, 3, 1),
    ("m20_stage_missing_end.scn", ParseError, 13, 1),
    ("m21_transit_moves_object.scn", ResolveError, 9, 8),
    # One past the last line, counted before the parser drops the text's lines.
    ("m22_missing_graph.scn", ResolveError, 10, 1),
    # A plain `obj` line but for its radius: the cursor, not the reader, reads it.
    ("m23_zero_radius.scn", ParseError, 5, 16),
]

# Each fixture's diagnostic as `str` gives it after the location: the
# message and the expected tokens it lists.
MESSAGES = {
    "m01_bad_char.scn": "unexpected character '$'",
    "m02_unterminated_string.scn": "unterminated string",
    "m03_missing_end.scn": "action lift missing end (expected end)",
    "m04_bad_keyword.scn": "unexpected word 'circel' (expected circle | box)",
    "m05_dup_entity.scn": "duplicate entity id cup",
    "m06_negative_weight.scn": "negative weight",
    "m07_unknown_action_ref.scn": "arc 1 references unknown action ghost",
    "m08_unknown_predicate.scn": "unknown predicate shiny",
    "m09_arity_mismatch.scn": "predicate warm expects 1 arguments, got 2",
    "m10_cycle.scn": "graph: cycle through node 4",
    "m11_derived_in_init.scn":
        "predicate clear is derived from geometry and cannot be asserted initially",
    "m12_missing_bounds.scn": "missing bounds line in OBJECTS",
    "m13_two_roots.scn": "graph: expected exactly one root node, found 2",
    "m14_missing_goal.scn": "GOAL section must state at least one fact",
    "m15_decimal_fraction_weight.scn": "fraction weight needs a whole numerator",
    "m16_huge_number.scn": "number has too many digits",
    "m17_exclusive_conflict.scn":
        "exclusive predicate slot: slot cup pad conflicts with slot cup table",
    "m18_unknown_child.scn": "graph: arc 2: unknown child 99",
    "m19_huge_bounds.scn": "bounds span 10000000000200000000001 grid cells, more than 1000000",
    "m20_stage_missing_end.scn": "stage clear_z missing end (expected end)",
    "m21_transit_moves_object.scn": "action drive: a transit action moves no object",
    "m22_missing_graph.scn": "missing GRAPH section",
    "m23_zero_radius.scn": "radius must be positive",
}


@pytest.mark.parametrize("name,errtype,line,col", MALFORMED)
def test_malformed_fixture_one_located_diagnostic(name, errtype, line, col):
    with pytest.raises(errtype) as info:
        parse_file(FIXTURES / "malformed" / name)
    err = info.value
    assert isinstance(err, DslError)
    assert err.line >= 1 and err.col >= 1
    if line is not None:
        assert err.line == line
    if col is not None:
        assert err.col == col
    assert str(err) == f"line {err.line}, col {err.col}: {MESSAGES[name]}"


def test_cycle_diagnostic_points_into_the_graph():
    with pytest.raises(ResolveError) as info:
        parse_file(FIXTURES / "malformed" / "m10_cycle.scn")
    assert info.value.line in (11, 12, 14, 15)


@pytest.mark.parametrize("arc,message", [
    ("arc 2 parent 1 children 99 weight 1", "arc 2: unknown child 99"),
    ("arc 1 parent 1 children 3 weight 2", "arc id 1 declared twice"),
    ("arc 3 parent 3 children 1 weight 1", "arc 3: parent 3 is a leaf"),
], ids=["unknown_child", "duplicate_arc", "arc_out_of_a_leaf"])
def test_an_arc_error_points_at_the_arc_not_a_node_of_its_id(arc, message):
    lines = read("malformed/m18_unknown_child.scn").splitlines()
    assert lines[7:10] == ['node 1 root "g"', 'node 2 failure "f"', 'node 3 leaf "clear z"']
    with pytest.raises(ResolveError) as info:
        parse("\n".join(lines[:-1] + [arc]))
    assert (info.value.line, info.value.col) == (12, 1)
    assert info.value.message == f"graph: {message}"


@pytest.mark.parametrize("kind", ["add", "del"])
def test_the_first_bad_effect_fact_is_reported_whatever_the_hash_seed(kind):
    """An action's effects are frozensets, which iterate in an order that
    changes with the hash seed; their facts are checked in file order."""
    raw = read("minimal.scn")
    assert "  add polished cup\n" in raw
    bad = "".join(f"  {kind} polished {name}\n" for name in ("ghost", "phantom", "spectre"))
    with pytest.raises(ResolveError) as info:
        parse(raw.replace("  add polished cup\n", bad))
    assert (info.value.line, info.value.message) == (18, "unknown entity ghost")


def test_an_action_s_roles_are_checked_in_the_order_serialize_writes_them():
    raw = read("minimal.scn")
    assert "  area pad\n" in raw and "  to pad\n" in raw
    with pytest.raises(ResolveError) as info:
        parse(raw.replace("marker pad", "marker spot"))
    assert (info.value.line, info.value.message) == (20, "action park: area references "
                                                         "unknown id pad")


def test_object_as_its_own_destination_is_a_located_error():
    raw = read("minimal.scn")
    assert "  to pad\n" in raw
    with pytest.raises(ResolveError) as info:
        parse(raw.replace("  to pad\n", "  to cup\n"))
    assert (info.value.line, info.value.col) == (20, 8)
    assert "cup cannot be put on itself" in info.value.message


@pytest.mark.parametrize("objects,line,cycle", [
    ("obj cup circle 0.04 at 0.2 0.2 movable on mug\n"
     "obj mug circle 0.04 at 0.2 0.2 movable on cup\n", 5, "cup on mug on cup"),
    ("obj cup circle 0.04 at 0.2 0.2 movable on cup\n", 5, "cup on cup"),
    ("obj cup circle 0.04 at 0.2 0.2 movable on mug\n"
     "obj mug circle 0.04 at 0.2 0.2 movable on jar\n"
     "obj jar circle 0.04 at 0.2 0.2 movable on mug\n", 6, "mug on jar on mug"),
], ids=["two", "self", "above_a_chain"])
def test_stacking_cycle_in_on_clauses_is_a_located_error(objects, line, cycle):
    raw = read("minimal.scn")
    cup = "obj cup circle 0.04 at 0.2 0.2 movable\n"
    assert cup in raw
    with pytest.raises(ResolveError) as info:
        parse(raw.replace(cup, objects))
    assert (info.value.line, info.value.col) == (line, 1)
    assert f"stacking cycle: {cycle}" in info.value.message


HUGE = "9" * 5000  # beyond Python's default limit of 4300 digits for int(str)


@pytest.mark.parametrize("old,new", [
    ("node 3 leaf", f"node {HUGE} leaf"),
    ("arc 1 parent 1", f"arc {HUGE} parent 1"),
    ("parent 1 children", f"parent {HUGE} children"),
    ("children 3 weight", f"children 3 {HUGE} weight"),
    ("weight 1 actions", f"weight {HUGE} actions"),
    ("weight 1 actions", f"weight 1.{HUGE} actions"),
    ("weight 1 actions", f"weight {HUGE}/2 actions"),
    ("weight 1 actions", f"weight 2/{HUGE} actions"),
    ("weight 2/3", f"weight 2/{HUGE}"),
    ("pred polished 1", f"pred polished {HUGE}"),
], ids=["node_id", "arc_id", "parent", "child", "weight", "decimal", "numerator",
        "denominator", "stage_denominator", "arity"])
def test_a_number_too_long_to_convert_is_a_located_error(old, new):
    lines = read("minimal.scn").splitlines()
    at = next(i for i, line in enumerate(lines) if old in line)
    lines[at] = lines[at].replace(old, new)
    with pytest.raises(ParseError) as info:
        parse("\n".join(lines))
    number = re.search(r"[0-9./]*" + HUGE, lines[at])
    assert (info.value.line, info.value.col) == (at + 1, number.start() + 1)
    assert info.value.message == "number has too many digits"


@pytest.mark.parametrize("old,new", [
    ("bounds -0.5 -0.5 0.5 0.5", f"bounds -1{'0' * 400} -0.5 0.5 0.5"),
    ("at 0.2 0.2 movable", f"at 0.2 {HUGE} movable"),
    ("reach 0.6", f"reach 1{'0' * 400}"),
], ids=["bounds", "position", "reach"])
def test_a_number_beyond_float_range_is_a_located_error(old, new):
    lines = read("minimal.scn").splitlines()
    at = next(i for i, line in enumerate(lines) if old in line)
    lines[at] = lines[at].replace(old, new)
    with pytest.raises(ParseError) as info:
        parse("\n".join(lines))
    number = re.search(r"-?[0-9]{300,}", lines[at])
    assert (info.value.line, info.value.col) == (at + 1, number.start() + 1)
    assert info.value.message == "number out of range"


@pytest.mark.parametrize("bounds,cells", [
    ("0 0 19.98 19.98", 1000 * 1000),
    ("0 0 19.98 20", 1000 * 1001),
    ("-1000000000 0 1000000000 1", 100000000001 * 51),
])
def test_bounds_are_capped_by_their_grid_cell_count(bounds, cells):
    lines = read("minimal.scn").splitlines()
    at = lines.index("bounds -0.5 -0.5 0.5 0.5")
    lines[at] = f"bounds {bounds}"
    text = "\n".join(lines)
    values = tuple(map(float, bounds.split()))
    _, _, nx, ny = world.grid_shape(values, world.DEFAULT_RESOLUTION)
    assert nx * ny == cells
    if cells <= world.MAX_GRID_CELLS:
        assert parse(text).bounds == values
        return
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (at + 1, 1)
    assert info.value.message == f"bounds span {cells} grid cells, more than 1000000"


@pytest.mark.parametrize("old,new,line", [
    ("polished table", "polished ghost", 30),
    ("at cup pad", "at ghost pad", 33),
    ('node 3 leaf "at cup pad"', 'node 3 leaf "at cup ghost"', 38),
    ("polished table", "polished ghost\npolished table\npolished ghost", 30),
    ("at cup pad", "at ghost pad\nat cup pad\nat ghost pad", 33),
], ids=["init", "goal", "leaf", "init_repeated", "goal_repeated"])
def test_a_fact_naming_an_unknown_entity_is_a_located_error(old, new, line):
    """A bad fact stated more than once is located at its first statement."""
    raw = read("minimal.scn")
    assert f"\n{old}\n" in raw
    with pytest.raises(ResolveError) as info:
        parse(raw.replace(f"\n{old}\n", f"\n{new}\n", 1))
    assert (info.value.line, info.value.col) == (line, 1)
    assert info.value.message == "unknown entity ghost"


def test_exclusive_predicate_rejects_two_places_for_one_object():
    raw = read("minimal.scn").replace("pred polished 1",
                                      "pred polished 1\npred slot 2 exclusive")
    with pytest.raises(ResolveError) as info:
        parse(raw.replace("INIT\npolished table", "INIT\nslot cup table\nslot cup pad"))
    assert (info.value.line, info.value.col) == (32, 1)
    assert info.value.message == \
        "exclusive predicate slot: slot cup pad conflicts with slot cup table"
    # One place per first argument, stated once or twice, is fine.
    for init in ("slot cup pad\nslot cup pad", "slot cup pad\nslot table pad"):
        scn = parse(raw.replace("INIT\npolished table", "INIT\n" + init))
        assert len(set(scn.init)) == len(set(init.splitlines()))


def test_fuzz_generator_covers_seeds_0_to_399():
    for seed in range(400):
        scn = fuzz_scenario(seed)
        for action in scn.actions.values():
            assert action.dest is None or action.dest != action.manipulated, seed


def test_fuzz_roundtrip_fixpoint():
    for seed in range(60):
        scn = fuzz_scenario(seed)
        text = serialize(scn)
        parsed = parse(text)
        assert parsed == scn, f"seed {seed}: parse(serialize(s)) != s"
        assert serialize(parsed) == text, f"seed {seed}: serializer not a fixpoint"


# ---------------------------------------------- whole-line graph patterns


@functools.cache
def benchmark_texts() -> dict[str, str]:
    texts = {f"hanoi{n}_{'solo' if omnipotent else 'dual'}":
             serialize(gen_hanoi(n, omnipotent=omnipotent))
             for n in range(3, 7) for omnipotent in (True, False)}
    habitat = gen_habitat()
    texts["habitat"] = serialize(habitat)
    habitat.stages = {name: t for name, t in habitat.stages.items()
                      if not name.startswith("clear_")}
    texts["habitat_unclearable"] = serialize(habitat)
    return texts


def graph_lines_of(texts) -> list[str]:
    """The distinct `node` and `arc` lines of the texts."""
    lines = (line for text in texts for line in text.splitlines()
             if line.lstrip().startswith(("node ", "arc ")))
    return list(dict.fromkeys(lines))


@functools.cache
def benchmark_graph_lines() -> list[str]:
    return graph_lines_of(benchmark_texts().values())


@functools.cache
def varied_graph_lines() -> list[str]:
    """Lines with fraction and decimal weights and escaped labels, which the
    benchmark texts, all integer weights and plain labels, lack."""
    hand_written = ['  node 7 internal "say \\"hi\\" \\\\ done"',
                    "arc 3 parent 1 children 2 4 weight 2/3 actions a b",
                    "\tarc 4 parent 1 children 2 weight 0.25  "]
    fuzz = graph_lines_of(serialize(fuzz_scenario(seed)) for seed in range(40))
    return hand_written + fuzz


def declarations(template):
    """A template's node and arc declarations, in declaration order."""
    return repr(nodes_of(template) + arcs_of(template))


def the_declaration(section):
    """The one declaration a section took, as the template built from it
    holds it."""
    template = section.template()
    (decl,) = nodes_of(template) + arcs_of(template)
    return decl


def read_with_cursor(line: str):
    """The token path's declaration for one graph line; None if it rejects it."""
    section = dsl._GraphSection()
    try:
        section.read(dsl._Cursor(dsl._lex_line(line, 1), 1, len(line)))
    except DslError:
        return None
    return the_declaration(section)


def fast_path_agrees(line: str) -> bool:
    """True when the whole-line patterns accept the line; fails the test if
    they accept a line the cursor rejects or read it differently."""
    section = dsl._GraphSection()
    if section.take([line], 0) == 0:
        return False
    slow = read_with_cursor(line)
    assert slow is not None, f"patterns accept a line the cursor rejects: {line!r}"
    assert repr(the_declaration(section)) == repr(slow), line
    return True


def cursor_only(monkeypatch):
    """Make every line go through the cursor: the graph, action-block,
    OBJECTS and action-head readers read no line."""
    monkeypatch.setattr(dsl._GraphSection, "take", lambda self, lines, index: index)
    monkeypatch.setattr(dsl._ActionBlock, "take", lambda self, lines, index: index)
    monkeypatch.setattr(dsl._Parser, "_take_OBJECTS", lambda self, lines, index: index)
    monkeypatch.setattr(dsl._Parser, "_take_ACTIONS", lambda self, lines, index: index)


def test_patterns_read_every_benchmark_and_fuzz_graph_line_as_the_cursor_does():
    lines = benchmark_graph_lines() + varied_graph_lines()
    assert len(lines) > 12000
    fast, slow = dsl._GraphSection(), dsl._GraphSection()
    assert fast.take(lines, 0) == len(lines)
    assert sorted(fast.node_lines + fast.arc_lines) == list(range(1, len(lines) + 1))
    for line in lines:
        slow.read(dsl._Cursor(dsl._lex_line(line, 1), 1, len(line)))
    by_patterns, by_tokens = fast.template(), slow.template()
    assert (list(nodes_of(by_patterns) + arcs_of(by_patterns))
            == list(nodes_of(by_tokens) + arcs_of(by_tokens)))


@pytest.mark.parametrize("line,taken", [
    ("arc 1 parent 1 children 3 weight 1 actions park # ok", True),
    ("arc 1 parent 1 children 3\tweight 0/7", True),
    ("arc 1 parent 1 children 3 weight 2.50", True),
    ('node 003 leaf "at cup pad"#', True),
    ("arc 1 parent 1 children 3 weight -0", False),
    ("arc 1 parent 1 children 3weight 1", False),
    ("arc 1 parent 1 children 3 weight 1actions park", False),
    ("arc 1 parent 1 children \u0663 weight 1", False),
    ('node 3 leaf"at cup pad"', False),
])
def test_graph_lines_parse_as_the_cursor_alone_reads_them(line, taken, monkeypatch):
    # Each line replaces one line of GRAPH and one of the stage; `taken`
    # says whether the patterns read it or leave it to the cursor.
    prefix = "node 3 leaf" if line.startswith("node") else "arc 1 parent"
    lines = read("minimal.scn").splitlines()
    swapped = [line if old.lstrip().startswith(prefix) else old for old in lines]
    assert sum(a != b for a, b in zip(lines, swapped)) == 2
    text = "\n".join(swapped)
    expected = read_with_cursor(line)
    assert expected is not None
    assert fast_path_agrees(line) is taken
    scn = parse(text)
    for template in (scn.graph, scn.stages["clear_cup"]):
        assert repr(expected) in map(repr, nodes_of(template) + arcs_of(template))
    cursor_only(monkeypatch)
    by_tokens = parse(text)
    assert declarations(by_tokens.graph) == declarations(scn.graph)
    assert declarations(by_tokens.stages["clear_cup"]) == declarations(scn.stages["clear_cup"])


NUMBERS = ["-0", "-1", "0", "007", "1/0", "0/0", "3/00", "1.5/2", "1.0/3", "2.50", "-1/2",
           "1/2", "123456789012345678901234567890", "\u0663", "1.", ".5", "1/2/3"]


def _edit_separator(line, draw):
    gaps = [m.start() for m in re.finditer(r"[ \t]", line)]
    if not gaps:
        return line
    at = draw(st.sampled_from(gaps))
    return line[:at] + draw(st.sampled_from(["", "\t", "  ", " \t "])) + line[at + 1:]


def _edit_number(line, draw):
    spans = [m.span() for m in re.finditer(r"[0-9]+(?:[./][0-9]+)*", line)]
    if not spans:
        return line
    start, end = draw(st.sampled_from(spans))
    return line[:start] + draw(st.sampled_from(NUMBERS)) + line[end:]


def _edit_piece(line, draw):
    pieces = line.split(" ")
    i = draw(st.integers(0, len(pieces) - 1))
    j = draw(st.integers(0, len(pieces) - 1))
    how = draw(st.sampled_from(["drop", "repeat", "swap"]))
    if how == "drop":
        del pieces[i]
    elif how == "repeat":
        pieces.insert(i, pieces[i])
    else:
        pieces[i], pieces[j] = pieces[j], pieces[i]
    return " ".join(pieces)


def _edit_label(line, draw):
    at = line.find('"')
    if at < 0:
        return line
    pos = draw(st.integers(at + 1, len(line)))
    return line[:pos] + draw(st.sampled_from(['\\"', "\\\\", "\\", '"', "é", "#"])) \
        + line[pos:]


def _edit_tail(line, draw):
    return line + draw(st.sampled_from([" # note", "#x", '\t# "q"', " #", " ", "\t",
                                        " actions", " actions x", " extra", " weight 1"]))


def _edit_char(line, draw):
    pos = draw(st.integers(0, len(line)))
    return line[:pos] + draw(st.sampled_from(list("-./\\\"#x_9 \t,\u0663"))) + line[pos:]


EDITS = [_edit_separator, _edit_number, _edit_piece, _edit_label, _edit_tail, _edit_char]


@st.composite
def mutated_graph_lines(draw):
    line = draw(st.one_of(st.sampled_from(benchmark_graph_lines()),
                          st.sampled_from(varied_graph_lines())))
    for _ in range(draw(st.integers(1, 3))):
        line = draw(st.sampled_from(EDITS))(line, draw)
    return line


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(mutated_graph_lines())
def test_patterns_never_accept_what_the_cursor_rejects_or_reads_differently(line):
    fast_path_agrees(line)


def parse_with_stated_lines(text: str):
    """The scenario, each action's facts as stated and each entity's and
    action's declaration, with their lines."""
    parser = dsl._Parser(text)
    return parser.parse(), parser.action_facts, parser.decl_lines


def test_parse_equals_the_token_only_parse(monkeypatch):
    fuzz = [fuzz_scenario(seed) for seed in range(400)]
    texts = list(benchmark_texts().values()) + [serialize(scn) for scn in fuzz]
    parsed = [parse_with_stated_lines(text) for text in texts]
    for scn, (parsed_scn, _, _) in zip(fuzz, parsed[-len(fuzz):]):
        assert parsed_scn == scn, scn.name
    cursor_only(monkeypatch)
    for text, (scn, stated, declared) in zip(texts, parsed):
        by_tokens, stated_by_tokens, declared_by_tokens = parse_with_stated_lines(text)
        assert scn == by_tokens, scn.name
        assert repr((scn.objects, scn.markers)) == repr((by_tokens.objects, by_tokens.markers))
        assert stated == stated_by_tokens, scn.name
        assert declared == declared_by_tokens, scn.name
        assert declarations(scn.graph) == declarations(by_tokens.graph), scn.name
        assert ({name: declarations(t) for name, t in scn.stages.items()}
                == {name: declarations(t) for name, t in by_tokens.stages.items()}), scn.name


def outcome(text: str):
    """What parsing a text gives: each graph's declarations, or the error."""
    try:
        scn = parse(text)
    except DslError as err:
        return type(err).__name__, err.message, err.line, err.col
    return declarations(scn.graph), {name: declarations(t) for name, t in scn.stages.items()}


def outcome_by_cursor(text: str, monkeypatch) -> tuple:
    with monkeypatch.context() as patch:
        cursor_only(patch)
        return outcome(text)


BREAKERS = ['node 1000 internal "say \\"hi\\" \\\\ done"',
            "arc 0000000000000000999 parent 1 children 3 weight 1",
            "arc 998 parent 1 children 3 weight 1/0"]


@pytest.mark.parametrize("breaker", BREAKERS)
@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize("section", ["GRAPH", "stage"])
def test_a_line_that_breaks_a_run_of_plain_lines_reads_as_the_cursor_reads_it(
        section, where, breaker, monkeypatch):
    # GRAPH is hanoi3's, which ends the file; the stage is minimal's.
    if section == "GRAPH":
        lines = read("hanoi3.scn").splitlines()
        first, last = lines.index("GRAPH") + 1, len(lines)
    else:
        lines = read("minimal.scn").splitlines()
        first = lines.index("stage clear_cup") + 1
        last = lines.index("end", first)
        breaker = "  " + breaker
    at = {"start": first, "middle": (first + last) // 2, "end": last}[where]
    text = "\n".join(lines[:at] + [breaker] + lines[at:]) + "\n"
    got = outcome(text)
    assert got == outcome_by_cursor(text, monkeypatch)
    if breaker.endswith("1/0"):
        assert got == ("ParseError", "zero denominator", at + 1, breaker.index("1/0") + 1)
    else:
        graph, stages = got
        taken = graph if section == "GRAPH" else stages["clear_cup"]
        assert repr(read_with_cursor(breaker)) in taken


def test_a_graph_that_ends_the_file_parses_with_or_without_a_final_newline(monkeypatch):
    text = read("hanoi3.scn")
    assert text.endswith("weight 0\n") and text.rstrip("\n").splitlines()[-1].startswith("arc")
    with_newline, without = outcome(text), outcome(text.rstrip("\n"))
    assert with_newline == without == outcome_by_cursor(text.rstrip("\n"), monkeypatch)
    assert len(parse(text).graph.arc_ids) == 257


@pytest.mark.parametrize("plant,message", [("weight 1/0", "zero denominator"),
                                           ("weight -1", "negative weight"),
                                           ("weight 1 @", "unexpected character '@'")])
def test_an_error_deep_in_a_large_graph_names_its_line(plant, message, monkeypatch):
    lines = benchmark_texts()["hanoi6_dual"].splitlines()
    at = next(i for i in range(10_500, len(lines)) if lines[i].startswith("arc "))
    lines[at] = re.sub(r" weight \d+", " " + plant, lines[at])
    text = "\n".join(lines) + "\n"
    got = outcome(text)
    assert got == outcome_by_cursor(text, monkeypatch)
    assert got[1:3] == (message, at + 1)


def hanoi6_dual_lines() -> tuple[list[str], list[int]]:
    """The lines of the hanoi 6 dual text, whose main graph ends the file,
    and the index of each line at which `take`, reading that graph from its
    first line, converts the fields read so far into a batch."""
    lines = benchmark_texts()["hanoi6_dual"].splitlines()
    flushes = list(range(lines.index("GRAPH") + 1 + dsl._BATCH, len(lines), dsl._BATCH))
    assert len(flushes) >= 3 and lines[-1].startswith("arc ")
    return lines, flushes


def test_take_holds_the_strings_of_one_batch_and_builds_what_one_conversion_does(
        monkeypatch):
    lines, flushes = hanoi6_dual_lines()
    assert lines[flushes[0]].startswith("node ") and lines[flushes[-1]].startswith("arc ")
    graph = lines[lines.index("GRAPH") + 1:]
    batched = dsl._GraphSection()
    assert batched.take(graph, 0) == len(graph)
    pending = len(batched.node_ids) + len(batched.arc_ids)
    assert 0 < pending == len(graph) - len(flushes) * dsl._BATCH
    assert all(len(batches) == len(flushes) for batches in batched.batches.values())
    monkeypatch.setattr(dsl, "_BATCH", len(graph) + 1)
    whole = dsl._GraphSection()
    assert whole.take(graph, 0) == len(graph)
    assert not any(whole.batches.values())
    assert (batched.node_lines, batched.arc_lines) == (whole.node_lines, whole.arc_lines)
    by_batches, at_once = batched.template(), whole.template()
    assert declarations(by_batches) == declarations(at_once)
    assert all(getattr(by_batches, name).dtype == getattr(at_once, name).dtype == np.int64
               for name in ("ids", "arc_ids", "parents", "child_starts", "children",
                            "weight_num", "weight_den"))


@pytest.mark.parametrize("where", ["after a boundary", "last batch"])
@pytest.mark.parametrize("plant,message", [
    (lambda line: re.sub(r" weight \d+", " weight 1/0", line), "zero denominator"),
    (lambda line: re.sub(r" children [\d ]+ weight", " children 99999 weight", line),
     "graph: arc {aid}: unknown child 99999"),
    (lambda line: re.sub(r"^arc \d+", "arc 1", line), "graph: arc id 1 declared twice"),
])
def test_an_error_after_a_batch_boundary_names_its_line_as_the_cursor_does(
        where, plant, message, monkeypatch):
    lines, flushes = hanoi6_dual_lines()
    at = (len(lines) - 1 if where == "last batch"
          else next(i for i in flushes if lines[i].startswith("arc ")))
    aid = lines[at].split()[1]
    lines[at] = plant(lines[at])
    text = "\n".join(lines) + "\n"
    got = outcome(text)
    assert got == outcome_by_cursor(text, monkeypatch)
    assert got[1:3] == (message.format(aid=aid), at + 1)


def test_a_duplicate_node_after_a_batch_boundary_names_its_line_as_the_cursor_does(
        monkeypatch):
    lines, flushes = hanoi6_dual_lines()
    at = flushes[0]
    lines[at] = re.sub(r"^node \d+", "node 1", lines[at])
    text = "\n".join(lines) + "\n"
    got = outcome(text)
    assert got == outcome_by_cursor(text, monkeypatch)
    assert got[1:4] == ("graph: node id 1 declared twice", at + 1, 1)


@pytest.mark.parametrize("field", ["arc id", "weight"])
def test_a_value_beyond_64_bits_after_a_batch_boundary_gives_an_object_column(
        field, monkeypatch):
    """Read by the cursor into a later batch, the value turns the whole
    column into Python integers, as converting it at once does."""
    lines, flushes = hanoi6_dual_lines()
    at = next(i for i in flushes if lines[i].startswith("arc "))
    if field == "arc id":
        lines[at] = re.sub(r"^arc \d+", f"arc {10**19 + 7}", lines[at])
    else:
        lines[at] = re.sub(r" weight \d+", f" weight {2**64 + 1}", lines[at])
    text = "\n".join(lines) + "\n"
    graph = parse(text).graph
    with monkeypatch.context() as patch:
        cursor_only(patch)
        by_tokens = parse(text).graph
    column = graph.arc_ids if field == "arc id" else graph.weight_num
    assert column.dtype == object and graph.ids.dtype == np.int64
    assert {type(value) for value in column.tolist()} == {int}
    assert graph.rows() == by_tokens.rows()
    assert declarations(graph) == declarations(by_tokens)


def test_a_36_digit_decimal_weight_parses_exactly():
    weight = "123456789012345678.123456789012345678"
    text = read("hanoi3.scn")
    text = re.sub(r"weight \S+", f"weight {weight}", text, count=1)
    graph = parse(text).graph
    assert graph.weight_num.dtype == object
    assert Fraction(weight) in {Fraction(num, den) for num, den in zip(
        graph.weight_num.tolist(), graph.weight_den.tolist())}


# ------------------------------------------------------- action-block reader


def action_block_lines_of(texts) -> list[str]:
    """The distinct lines of the texts' action blocks, `end` included."""
    lines = []
    for text in texts:
        inside = False
        for line in text.splitlines():
            if inside:
                lines.append(line)
            inside = line.startswith("action ") or inside and line != "end"
    return list(dict.fromkeys(lines))


@functools.cache
def benchmark_action_lines() -> list[str]:
    return action_block_lines_of(benchmark_texts().values())


@functools.cache
def varied_action_lines() -> list[str]:
    """Lines with durations, negated preconditions, tabs and comments, and
    the action lines of the fuzz scenarios."""
    hand_written = ["  duration 2.5", "  pre not held cup", "\tverb put", "  agent lifter  ",
                    "  del at cup table", "  add polished cup # note", "  area pad"]
    return hand_written + action_block_lines_of(
        serialize(fuzz_scenario(seed)) for seed in range(40))


def block_outcome(lines: list[str]):
    """What the block reader reads from `lines` as the body of `action a
    transfer`: the fields, preconditions and facts as stated with their
    lines, the index after `end`, and the template or why it is invalid;
    or the error's type and text (message, line, column and what was
    expected)."""
    parser = dsl._Parser("\n".join(lines))
    block = dsl._ActionBlock("a", MotionClass.TRANSFER)
    try:
        parser._block(dsl.Token("word", "action", 1, 1), "action a", block)
    except DslError as err:
        return type(err).__name__, str(err)
    try:
        template = block.template()
    except InvalidState as err:
        template = str(err)
    return block.fields, block.pre, block.stated, parser.index, template


def action_reader_agrees(line: str) -> bool:
    """True when the action reader takes `line`; fails the test if a block
    of `obj cup`, `to pad`, the line and `end` reads differently with the
    reader than through the cursor alone."""
    lines = ["  obj cup", "  to pad", line, "end"]
    got = block_outcome(lines)
    with pytest.MonkeyPatch.context() as patch:
        cursor_only(patch)
        assert got == block_outcome(lines), line
    return dsl._ActionBlock("a", MotionClass.TRANSFER).take([line], 0) == 1


def test_the_action_reader_takes_every_benchmark_block_line_but_durations():
    lines = benchmark_action_lines()
    durations = [line for line in lines if line.split()[0] == "duration"]
    assert len(lines) > 100 and durations
    for line in lines:
        assert action_reader_agrees(line) is (line not in durations), line
    for line in varied_action_lines():
        action_reader_agrees(line)


ACTION_WORDS = ["end", "duration", "obj", "to", "verb", "pre", "add", "del", "not", "grasp",
                "fly", "action", "1"]


def replacing_a_word_by(choices: list[str]):
    """An edit that replaces a word with one of `choices`."""
    def edit(line, draw):
        words = line.split(" ")
        i = draw(st.integers(0, len(words) - 1))
        words[i] = draw(st.sampled_from(choices))
        return " ".join(words)
    return edit


# Replace a word with a key, `not`, a verb, a number or a stranger.
_edit_word = replacing_a_word_by(ACTION_WORDS)


@st.composite
def mutated_action_lines(draw):
    line = draw(st.one_of(st.sampled_from(benchmark_action_lines()),
                          st.sampled_from(varied_action_lines())))
    edits = [_edit_separator, _edit_piece, _edit_tail, _edit_char, _edit_word]
    for _ in range(draw(st.integers(1, 3))):
        line = draw(st.sampled_from(edits))(line, draw)
    return line


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(mutated_action_lines())
def test_the_action_reader_never_accepts_what_the_cursor_rejects_or_reads_differently(line):
    action_reader_agrees(line)


def parse_outcome(text: str):
    """What parsing a text gives: its actions and their facts as stated,
    each declaration with its line, and its objects and markers; or the
    error's type, message, line and column."""
    try:
        scn, stated, declared = parse_with_stated_lines(text)
    except DslError as err:
        return type(err).__name__, err.message, err.line, err.col
    return scn.actions, stated, declared, repr((scn.objects, scn.markers))


@pytest.mark.parametrize("line,taken,message", [
    ("  pre not", False, "unexpected end of line"),
    ("  pre not not x", True, "unknown predicate not"),
    ("  add not x", True, "unknown predicate not"),
    ("  obj a b", False, "trailing word 'b'"),
    ("  verb fly", False, "unexpected word 'fly'"),
    ("end x", False, "trailing word 'x'"),
    ("  pre clear cup # c", False, None),
    ("\tpre\tnot  held\tcup\t", True, None),
    (None, True, "action park missing end"),  # the file ends inside the block
])
def test_action_lines_parse_as_the_cursor_alone_reads_them(line, taken, message, monkeypatch):
    # Each line goes right after minimal's `action park transfer`; for None
    # the file ends with a `pre clear cup` line there, before the block's `end`.
    lines = read("minimal.scn").splitlines()
    at = lines.index("action park transfer") + 1
    if line is None:
        lines = lines[:at] + ["  pre clear cup"]
    else:
        lines.insert(at, line)
    text = "\n".join(lines) + "\n"
    assert (dsl._ActionBlock("park", MotionClass.TRANSFER).take(lines, at) > at) is taken
    got = parse_outcome(text)
    with monkeypatch.context() as patch:
        cursor_only(patch)
        assert parse_outcome(text) == got
    if message is None:
        assert set(got[0]) == {"buff", "park"}
    else:
        assert got[1] == message
        assert got[2] == (at if line is None else at + 1)


# ------------------------------------------ OBJECTS and action-head readers


def object_lines_of(texts) -> list[str]:
    """The distinct `obj`, `marker` and `action` head lines of the texts."""
    lines = (line for text in texts for line in text.splitlines()
             if line.startswith(("obj ", "marker ", "action ")))
    return list(dict.fromkeys(lines))


@functools.cache
def benchmark_object_lines() -> list[str]:
    return object_lines_of(benchmark_texts().values())


@functools.cache
def varied_object_lines() -> list[str]:
    """Lines with yaws, stacks, `blocks` tags, snaps, tabs and comments,
    and the object, marker and action head lines of the fuzz scenarios."""
    hand_written = ["obj lid box 0.1 0.05 at -0.25 0.1 movable yaw -1.5 on cup blocks arm",
                    "\tobj lid circle 0.01 at -0 0.000000000000000001 movable on cup # on it",
                    "obj lid circle 123456789012345678.5 at 0 0 fixed blocks all",
                    "marker dock at 0.1 -0.1 snap 0.2", "  marker dock at 0 0 handover#",
                    "action lift handover  ", "\taction lift wait # waits"]
    return hand_written + object_lines_of(serialize(fuzz_scenario(seed)) for seed in range(40))


def declarations_read(text: str, section: str, lexed: list[int]):
    """What `section`'s line loop reads from `text`: the objects, markers and
    actions with the lines of their declarations, or the error; each line
    that reached the cursor is appended to `lexed`."""
    parser = dsl._Parser(text)
    parser.section = section
    try:
        for cur in parser._cursors():
            lexed.append(cur.line)
            getattr(parser, "_line_" + section)(cur)
    except DslError as err:
        return type(err).__name__, str(err)
    scn = parser.scenario
    return repr((scn.objects, scn.markers, scn.actions)), parser.decl_lines


def object_reader_agrees(line: str) -> bool:
    """True when the OBJECTS or action-head reader takes `line`, the second
    line of a text (an action head's block follows it); fails the test if
    it takes a line the cursor rejects, or reads other values or lines."""
    section = "ACTIONS" if line.split()[:1] == ["action"] else "OBJECTS"
    body = ["  obj cup", "  to pad"] if re.search("transfer|handover", line) else []
    text = "\n".join(["", line, *body, "end"] if section == "ACTIONS" else ["", line])
    lexed: list[int] = []
    got = declarations_read(text, section, lexed)
    with pytest.MonkeyPatch.context() as patch:
        cursor_only(patch)
        by_cursor = declarations_read(text, section, [])
    taken = 2 not in lexed and isinstance(got[1], dict)
    assert not taken or isinstance(by_cursor[1], dict), f"reader accepts {line!r}"
    assert got == by_cursor, line
    return taken


def test_the_object_reader_takes_every_benchmark_object_marker_and_action_head():
    lines = benchmark_object_lines()
    assert len(lines) > 100
    assert {line.split()[0] for line in lines} == {"obj", "marker", "action"}
    for line in lines:
        assert object_reader_agrees(line), line
    assert all(object_reader_agrees(line) for line in varied_object_lines())


OBJECT_WORDS = ["obj", "marker", "action", "circle", "box", "at", "movable", "fixed", "yaw", "on",
                "blocks", "all", "arm", "wall", "snap", "handover", "transfer", "wait", "1"]
SIZES = ["0", "-0", "0.0", "-1.5", "0.000000000000000001", "1234567890123456789",
         "123456789012345678.123456789012345678", "123456789012345678.1234567890123456789"]


def _edit_size(line, draw):
    """Replace a number with zero, a negative or a number near 18 digits."""
    spans = [m.span() for m in re.finditer(r"[0-9]+(?:\.[0-9]+)?", line)]
    if not spans:
        return line
    start, end = draw(st.sampled_from(spans))
    return line[:start] + draw(st.sampled_from(SIZES)) + line[end:]


@st.composite
def mutated_object_lines(draw):
    line = draw(st.one_of(st.sampled_from(benchmark_object_lines()),
                          st.sampled_from(varied_object_lines())))
    edits = [_edit_separator, _edit_number, _edit_size, _edit_piece, _edit_tail, _edit_char,
             replacing_a_word_by(OBJECT_WORDS)]
    for _ in range(draw(st.integers(1, 3))):
        line = draw(st.sampled_from(edits))(line, draw)
    return line


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(mutated_object_lines())
def test_the_object_reader_never_accepts_what_the_cursor_rejects_or_reads_differently(line):
    object_reader_agrees(line)


def lexed_line_numbers(text: str, monkeypatch) -> list[int]:
    """The number of each line that reaches the lexer in one parse of
    `text`, up to its error if it has one."""
    lex, seen = dsl._lex_line, []

    def counting(line: str, line_no: int):
        seen.append(line_no)
        return lex(line, line_no)

    with monkeypatch.context() as patch:
        patch.setattr(dsl, "_lex_line", counting)
        try:
            parse(text)
        except DslError:
            pass
    return seen


@pytest.mark.parametrize("line,taken,message,where", [
    ("obj lid circle 0 at 0 0 movable", False, "radius must be positive", (0, 16)),
    ("obj lid box 0.1 -0 at 0 0 movable", False, "height must be positive", (0, 17)),
    ("marker dock at 0 0 snap 0", False, "snap radius must be positive", (0, 25)),
    ("obj lid circle 0.01 at 1234567890123456789 0 movable on cup", False, None, None),
    ("obj lid circle 0.01 at 0 0 movable on cup yaw 1", False, "trailing word 'yaw'", (0, 43)),
    ("obj lid circle 0.01 at 0 0 movable blocks wall", False, "unexpected word 'wall'",
     (0, 43)),
    ("obj lid circle 0.01 at 0 0 movable on cup # c", True, None, None),
    ("\tobj\tlid circle  0.01 at 0 0\tmovable yaw 2\t", True, None, None),
    ("marker cup at 0 0", True, "duplicate entity id cup", (0, 8)),
    # `marker pad`, two lines on, is then the duplicate, read by the reader.
    ("  obj pad circle 0.01 at 0 0 fixed", True, "duplicate entity id pad", (2, 8)),
    ("action park transfer # c", True, None, None),
    ("\taction\tpark  transfer\t", True, None, None),
    ("action park fly", False, "unexpected word 'fly'", (0, 13)),
    ("action park transfer extra", False, "trailing word 'extra'", (0, 22)),
    ("action buff transfer", True, "duplicate action buff", (0, 8)),
])
def test_object_lines_and_action_heads_parse_as_the_cursor_alone_reads_them(
        line, taken, message, where, monkeypatch):
    # An object or marker line goes right after minimal's `obj cup`, so the
    # reader resumes after it; an action head replaces `action park transfer`.
    # `where` is the error's line, counted from the planted one, and column.
    lines = read("minimal.scn").splitlines()
    if line.split()[0] == "action":
        at = lines.index("action park transfer")
        lines[at] = line
    else:
        at = lines.index("obj cup circle 0.04 at 0.2 0.2 movable") + 1
        lines.insert(at, line)
    text = "\n".join(lines) + "\n"
    got = parse_outcome(text)
    with monkeypatch.context() as patch:
        cursor_only(patch)
        assert parse_outcome(text) == got
    assert (at + 1 not in lexed_line_numbers(text, monkeypatch)) is taken
    if message is None:
        assert {("action", "park"), ("entity", "cup")} <= got[2].keys()
    else:
        assert got[1:] == (message, at + 1 + where[0], where[1]), got


@pytest.mark.parametrize("name,count", [("habitat", 38), ("habitat_unclearable", 32),
                                        ("hanoi6_dual", 20)])
def test_only_lines_of_no_plain_shape_reach_the_lexer(name, count, monkeypatch):
    # Pinned work: a change that sends object, marker, action head, graph
    # or action-block lines back through the lexer raises these counts.
    text = benchmark_texts()[name]
    lines = text.splitlines()
    lexed = lexed_line_numbers(text, monkeypatch)
    assert len(lexed) == count
    plain = ("obj ", "marker ", "action ", "node ", "arc ", "pre ", "add ", "del ")
    assert not [lines[n - 1] for n in lexed if lines[n - 1].lstrip().startswith(plain)]


def parse_memory(text: str) -> tuple[int, int]:
    """What parsing `text` keeps (the scenario) and the peak it reaches, in
    bytes, counted by tracemalloc from just before the parse."""
    parse(read("hanoi3.scn"))  # the first parse's one-time allocations
    gc.collect()
    tracemalloc.start()
    try:
        scn = parse(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scn.graph is not None
    return kept, peak


@pytest.mark.parametrize("disks,bound", [(6, 3.0), (8, 3.0)])
def test_a_large_graph_parses_within_a_few_times_what_it_keeps(disks, bound):
    # The text's lines, the strings of the numeric fields and the column
    # pass's temporaries are all that the parse holds beyond its result.
    kept, peak = parse_memory(serialize(gen_hanoi(disks)))
    assert peak <= bound * kept, (peak, kept)


# ---------------------------------- possessive patterns and one-pass lexer

HOSTILE_LINES = [
    "1a", "@node 1 leaf", "node @ 1", "node 1 leaf @", 'node 1 leaf "unterminated',
    'node 1 leaf "ends in a backslash\\', "\u0663", "arc 1 parent \u0663 children 2 weight 1",
    "\x00", "node\x001", "node 1\x00", "   ", "\t \t", "", "arc 1 parent 1 children 2 weight 1\t",
    'node 1 leaf "a # b" # note', 'node 1 leaf "a"# "quoted" note', 'node 1 leaf "\\"#"\t#',
    'node 1234567890123456789 leaf "x"', "arc 1 parent 1 children 2 weight 1/0",
    "arc 1 parent 1 children 2 weight 1.5/2", "arc 1 parent 1 children 2 weight 1 actions",
    "arc 1 parent 1 children 2 weight 1 actions a  b\t# c", "arc 1 parent 1 children 2weight 1",
    "arc 1 parent 1 children 2 3 4 weight 123456789012345678", "- 1", "-", "1.", "a/b",
]


def lexed(lex, line: str):
    """A lexer's tokens for a line, or its error's message, line and column."""
    try:
        return lex(line, 7)
    except LexError as err:
        return err.message, err.line, err.col


def assert_as_the_oracles(line: str):
    for pattern, oracle in ((dsl._NODE_LINE, line_oracle.NODE_LINE),
                            (dsl._ARC_LINE, line_oracle.ARC_LINE)):
        fast, slow = pattern.fullmatch(line), oracle.fullmatch(line)
        assert (fast and fast.groups()) == (slow and slow.groups()), line
    assert lexed(dsl._lex_line, line) == lexed(line_oracle.lex_line, line), line


@functools.cache
def every_line() -> list[str]:
    """Each distinct line of the benchmark texts, every fixture, malformed
    ones too, and the fuzz scenarios of seeds 0-199."""
    texts = list(benchmark_texts().values())
    texts += [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.rglob("*.scn"))]
    texts += [serialize(fuzz_scenario(seed)) for seed in range(200)]
    return sorted({line for text in texts for line in text.splitlines()})


def test_patterns_and_lexer_read_every_line_as_the_backtracking_oracles_do():
    lines = every_line() + HOSTILE_LINES
    for line in lines:
        assert_as_the_oracles(line)
    errors = [line for line in lines if isinstance(lexed(dsl._lex_line, line), tuple)]
    assert len(errors) >= 12
    assert any(dsl._ARC_LINE.fullmatch(line) for line in lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_graph_lines())
def test_patterns_and_lexer_read_mutated_lines_as_the_backtracking_oracles_do(line):
    assert_as_the_oracles(line)


# ------------------------------------------------ whole-text mutations


@functools.cache
def mutation_sources() -> tuple[list[str], ...]:
    return read("hanoi3.scn").splitlines(), benchmark_texts()["habitat"].splitlines()


MUTANT_TOKENS = ["-1", "1/0", "99999999999999999999", "#", "end", *dsl.SECTIONS, "0", "2.5",
                 '"x"', "node", "arc", "stage", "weight", "children", "actions", "root",
                 "failure", "leaf"]
LINE_EDITS = ["delete line", "duplicate line", "insert line", "move line", "replace token",
              "insert token", "delete token", "duplicate token"]


@st.composite
def mutated_texts(draw):
    """hanoi3.scn or the habitat text with one to three lines or tokens
    deleted, duplicated, moved or replaced."""
    lines = list(draw(st.sampled_from(mutation_sources())))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(LINE_EDITS))
        if how == "delete line":
            del lines[i]
        elif how == "duplicate line":
            lines.insert(i, lines[i])
        elif how == "insert line":
            lines.insert(i, draw(st.sampled_from(MUTANT_TOKENS)))
        elif how == "move line":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        else:
            tokens = lines[i].split(" ")
            j = draw(st.integers(0, len(tokens) - 1))
            if how == "replace token":
                tokens[j] = draw(st.sampled_from(MUTANT_TOKENS))
            elif how == "insert token":
                tokens.insert(j, draw(st.sampled_from(MUTANT_TOKENS)))
            elif how == "delete token":
                del tokens[j]
            else:
                tokens.insert(j, tokens[j])
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mutated_texts())
def test_a_mutated_text_is_one_located_error_or_round_trips(text):
    try:
        scn = parse(text)
    except DslError as err:
        assert err.line >= 1 and err.col >= 1
        return
    assert parse(serialize(scn)) == scn
