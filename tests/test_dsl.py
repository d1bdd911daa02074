"""Scenario language tests: round trips, canonical form, diagnostics."""

from fractions import Fraction
from pathlib import Path

import pytest

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


def test_object_as_its_own_destination_is_a_located_error():
    raw = read("minimal.scn")
    assert "  to pad\n" in raw
    with pytest.raises(ResolveError) as info:
        parse(raw.replace("  to pad\n", "  to cup\n"))
    assert (info.value.line, info.value.col) == (20, 8)
    assert "cup cannot be put on itself" in info.value.message


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
