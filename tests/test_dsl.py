"""Scenario language tests: round trips, canonical form, diagnostics."""

import functools
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskmotion import dsl, world
from taskmotion.domain import Fact
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
    assert scn.graph.arcs[1].weight == Fraction(1, 2)
    assert scn.stages["clear_cup"].arcs[0].weight == Fraction(2, 3)


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
    root_label = next(n.label for n in scn.graph.nodes if n.id == 1)
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
    assert parse(text).stages["clear_cup"].arcs[0].weight == Fraction(2, 3)


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
]


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
    assert f"line {err.line}" in str(err)


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
], ids=["init", "goal", "leaf"])
def test_a_fact_naming_an_unknown_entity_is_a_located_error(old, new, line):
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
    return repr(template.nodes + template.arcs)


def the_declaration(section):
    """The one declaration a section took, as the template built from it
    holds it."""
    template = section.template()
    (decl,) = template.nodes + template.arcs
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
    if not section.match(line, 1):
        return False
    slow = read_with_cursor(line)
    assert slow is not None, f"patterns accept a line the cursor rejects: {line!r}"
    assert repr(the_declaration(section)) == repr(slow), line
    return True


def cursor_only(monkeypatch):
    """Make every graph line go through the cursor."""
    monkeypatch.setattr(dsl._GraphSection, "match", lambda self, raw, line_no: False)


def test_patterns_read_every_benchmark_and_fuzz_graph_line_as_the_cursor_does():
    lines = benchmark_graph_lines() + varied_graph_lines()
    assert len(lines) > 12000
    fast, slow = dsl._GraphSection(), dsl._GraphSection()
    declined = [line for line in lines if not fast.match(line, 1)]
    assert declined == []
    for line in lines:
        slow.read(dsl._Cursor(dsl._lex_line(line, 1), 1, len(line)))
    by_patterns, by_tokens = fast.template(), slow.template()
    assert list(by_patterns.nodes + by_patterns.arcs) == list(by_tokens.nodes + by_tokens.arcs)


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
        assert repr(expected) in map(repr, template.nodes + template.arcs)
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


def test_parse_equals_the_token_only_parse(monkeypatch):
    fuzz = [fuzz_scenario(seed) for seed in range(400)]
    texts = list(benchmark_texts().values()) + [serialize(scn) for scn in fuzz]
    parsed = [parse(text) for text in texts]
    for scn, parsed_scn in zip(fuzz, parsed[-len(fuzz):]):
        assert parsed_scn == scn, scn.name
    cursor_only(monkeypatch)
    for text, scn in zip(texts, parsed):
        by_tokens = parse(text)
        assert scn == by_tokens, scn.name
        assert declarations(scn.graph) == declarations(by_tokens.graph), scn.name
        assert ({name: declarations(t) for name, t in scn.stages.items()}
                == {name: declarations(t) for name, t in by_tokens.stages.items()}), scn.name


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
