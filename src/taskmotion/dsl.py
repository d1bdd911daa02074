"""Scenario description language: parser, resolver, canonical serializer.

A scenario file is line oriented. `#` starts a comment, blank lines are
ignored, and an uppercase word alone on a line opens a section:

    scenario hanoi_3

    OBJECTS
    bounds -1.1 -0.3 1.1 1.1
    obj pegA circle 0.028 at 0 0.2 fixed
    obj d1 circle 0.045 at 0 0.2 movable on pegA
    marker pad at 0 0.45 snap 0.05 handover

    AGENTS
    arm arm_left at -0.3 0 reach 0.75
    base cart at 0 0 radius 0.22

    PREDICATES
    pred sterilised 1

    ACTIONS
    action move_d1 transfer
      obj d1
      from pegA
      to pegB
      verb transfer
      pre clear d1
      pre clear pegB
    end

    INIT
    sterilised glass_1

    GOAL
    on d1 pegB

    GRAPH
    node 1 root "all disks moved"
    node 2 leaf "on d1 pegB"
    arc 1 parent 1 children 2 weight 1 actions move_d1

    STAGES
    stage clear_d1
      node 1 root "obstruction cleared"
      node 2 leaf "clear d1"
      arc 1 parent 1 children 2 weight 1
    end

A scenario declares its objects, markers and agents as the `world`
module's own `Obj`, `Marker` and `Agent` values, as written. An action's
role keywords (`agent`, `area`, `obj`, `from`, `to`) map to its
`ActionTemplate` fields through one table, `_ROLES`, which the reader,
the resolver and `serialize` share.

Every line is read through one loop, `_Parser._cursors`: while OBJECTS,
ACTIONS, a graph section (GRAPH, or a stage block) or an action block is
open, its `take` first reads the run of plain lines that starts there, in
one local loop; every other line with tokens becomes a token cursor, lexed
in one regex pass, one match per token with its leading blanks. A stage or
action block is the loop's lines up to `end`, through one block reader,
`_Parser._block`.

Six plain line shapes are read with one whole-line pattern each that never
backtracks, without tokens: `node <id> <kind> "<label>"`; `arc <id> parent
<id> children <id>... weight <w> [actions <name>...]`, with unsigned ASCII
numbers of at most 18 digits and a weight that is an integer, a decimal or
a fraction with a non-zero denominator; `obj` and `marker` lines, options
in the cursor's order, with numbers of at most 18 digits each side of the
point; `action <name> <class>`; each with an optional trailing comment;
and, in an action block, `end` or a key other than `duration` followed by
words only. Every other line goes through the token cursor, which alone
makes diagnostics and reads the same values: each one that is wrong, whose
words do not fit its key, or whose radius, width, height or snap is not
positive. An entity or action has one builder, which either path calls
with the name's line and column.

A graph (GRAPH, or one stage of STAGES) is read into columns, not objects,
by a section that is an `andor.GraphBuilder`: the plain lines' fields go
to it as strings, the cursor's as integers. `take` has the builder convert
the numeric fields to integer batches every `_BATCH` lines, joined into
the columns of an `andor.GraphTemplate` when the section ends. The text's
lines are dropped when the line loop ends, before the main graph is built
and validated; an error about a node or an arc is located through the line
kept for each. `serialize` writes a graph from the template's `rows`.

Parsing fails fast: the first problem raises one diagnostic carrying the
line and column. An action's roles are checked in `_ROLES` order and its
facts in the order the file states them. `serialize` emits a canonical
form (sections in a fixed order, entries sorted, numbers in their
shortest exact spelling) that parses back to an equal scenario.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .andor import KINDS, GraphBuilder, GraphError, GraphTemplate, NodeKind, escape_label
from .domain import (
    BUILTIN_PREDICATE_DECLS,
    DERIVED_PREDICATES,
    ActionTemplate,
    Condition,
    Fact,
    InvalidState,
    MotionClass,
    PredicateDecl,
)
from .world import (DEFAULT_RESOLUTION, DEFAULT_SNAP, MAX_GRID_CELLS, Agent, Marker, Obj,
                    grid_shape)

SECTIONS = ("OBJECTS", "AGENTS", "PREDICATES", "ACTIONS", "INIT", "GOAL",
            "GRAPH", "STAGES")
_BLOCK_TAGS = ("all", "arm", "base")
# An action's entity roles: each keyword and the `ActionTemplate` field it
# sets, in the order `serialize` writes them.
_ROLES = {"agent": "agent", "area": "area", "obj": "manipulated", "from": "source",
          "to": "dest"}
_VERBS = ("transfer", "grasp", "put")


class DslError(Exception):
    """Located diagnostic: every parse failure carries line and column."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        suffix = ""
        if expected:
            suffix = " (expected " + " | ".join(expected) + ")"
        super().__init__(f"line {line}, col {col}: {message}{suffix}")


class LexError(DslError):
    pass


class ParseError(DslError):
    pass


class ResolveError(DslError):
    pass


@dataclass
class Scenario:
    """Entities are `world` values as declared: an agent's `anchor` is its
    `at` point and `world.world_from_scenario` places it."""

    name: str
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    objects: dict[str, Obj] = field(default_factory=dict)
    markers: dict[str, Marker] = field(default_factory=dict)
    agents: dict[str, Agent] = field(default_factory=dict)
    predicates: dict[str, PredicateDecl] = field(default_factory=dict)
    actions: dict[str, ActionTemplate] = field(default_factory=dict)
    init: tuple[Fact, ...] = ()
    goal: tuple[Fact, ...] = ()
    graph: GraphTemplate | None = None
    stages: dict[str, GraphTemplate] = field(default_factory=dict)

    def entity_ids(self) -> set[str]:
        return set(self.objects) | set(self.markers) | set(self.agents)

    def all_predicates(self) -> dict[str, PredicateDecl]:
        merged = dict(BUILTIN_PREDICATE_DECLS)
        merged.update(self.predicates)
        return merged

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return (self.name == other.name and self.bounds == other.bounds
                and self.objects == other.objects and self.markers == other.markers
                and self.agents == other.agents and self.predicates == other.predicates
                and self.actions == other.actions and set(self.init) == set(other.init)
                and set(self.goal) == set(other.goal) and self.graph == other.graph
                and self.stages == other.stages)


# ------------------------------------------------------------------ lexer


# One match per token with its leading blanks; `bad` is any other character.
_TOKEN_RE = re.compile(r"""[ \t]*+(?:
    (?P<comment>\#.*)
  | (?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<badstring>"(?:[^"\\]|\\.)*$)
  | (?P<end>\Z)
  | (?P<bad>[\s\S])
)""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # "word" | "number" | "string"
    value: str
    line: int
    col: int


def _lex_line(text: str, line_no: int) -> list[Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "comment" or kind == "end":
            break
        col = match.start(kind) + 1
        if kind == "bad":
            raise LexError(f"unexpected character {match[kind]!r}", line_no, col)
        if kind == "badstring":
            raise LexError("unterminated string", line_no, col)
        tokens.append(Token(kind, match[kind], line_no, col))
    return tokens


class _Cursor:
    """Token stream over one line with located error helpers."""

    def __init__(self, tokens: list[Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.line = line_no
        self.end_col = line_len + 1
        self.index = 0

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    def _fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line, self.end_col, expected)
        raise ParseError(f"unexpected {tok.kind} {tok.value!r}", tok.line, tok.col, expected)

    def _take(self, kind: str, expected: str, bad: str = "") -> Token:
        """The next token if it is a `kind` holding none of the characters of `bad`."""
        tok = self.peek()
        if tok is None or tok.kind != kind or not set(bad).isdisjoint(tok.value):
            self._fail((expected,))
        self.index += 1
        return tok

    def word(self, *expected: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "word" or (expected and tok.value not in expected):
            self._fail(expected or ("identifier",))
        self.index += 1
        return tok

    def number(self) -> tuple[float, Token]:
        tok = self._take("number", "number", "/")
        value = float(tok.value)
        if math.isinf(value):
            raise ParseError("number out of range", tok.line, tok.col)
        return value, tok

    def positive(self, what: str) -> float:
        value, tok = self.number()
        if value <= 0:
            raise ParseError(f"{what} must be positive", tok.line, tok.col)
        return value

    def integer(self) -> int:
        tok = self._take("number", "non-negative integer", "./-")
        return _convert(int, tok.value, tok)

    def weight(self) -> tuple[Fraction, Token]:
        tok = self._take("number", "weight")
        if "/" in tok.value:
            num, den = tok.value.split("/")
            if "." in num:
                raise ParseError("fraction weight needs a whole numerator", tok.line, tok.col)
            den = _convert(int, den, tok)
            if den == 0:
                raise ParseError("zero denominator", tok.line, tok.col)
            return Fraction(_convert(int, num, tok), den), tok
        return _convert(Fraction, tok.value, tok), tok

    def string(self) -> str:
        return _unescape(self._take("string", "quoted label").value)

    def maybe_word(self, *values: str) -> Token | None:
        tok = self.peek()
        if tok is not None and tok.kind == "word" and tok.value in values:
            self.index += 1
            return tok
        return None

    def finish(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing {tok.kind} {tok.value!r}", tok.line, tok.col,
                             ("end of line",))


def _convert(convert, text: str, tok: Token):
    """`convert(text)`; more digits than Python converts is a located error."""
    try:
        return convert(text)
    except ValueError:
        raise ParseError("number has too many digits", tok.line, tok.col) from None


def _unescape(raw: str) -> str:
    body = raw[1:-1]
    return body.replace("\\\"", "\"").replace("\\\\", "\\")


# The plain `node` and `arc` shapes of the module docstring, which make up
# nearly all of a large graph's text. A label is the lexer's string pattern
# with its loop unrolled: the same strings, matched about four times faster.
# Every quantifier is possessive: no part of either shape can give back what
# it matched and still match, so a line that fails fails without retries.
# Every line these accept lexes into the same tokens and reads to the same
# fields through the cursor. A number has at most 18 digits, so it fits in
# 64 bits and its conversion cannot fail; a longer one is left to the cursor.
_NODE_LINE = re.compile(
    r'[ \t]*+node[ \t]++([0-9]{1,18}+)[ \t]++(root|failure|leaf|internal)[ \t]++'
    r'("[^"\\]*+(?:\\.[^"\\]*+)*+")[ \t]*+(?:#.*)?+')
_ARC_LINE = re.compile(
    r'[ \t]*+arc[ \t]++([0-9]{1,18}+)[ \t]++parent[ \t]++([0-9]{1,18}+)[ \t]++children'
    r'((?:[ \t]++[0-9]{1,18}+)++)[ \t]++weight[ \t]++([0-9]{1,18}+)'
    r'(?:/([1-9][0-9]{0,17}+)|\.([0-9]{1,18}+))?+'
    r'(?:[ \t]++actions((?:[ \t]++[A-Za-z_][A-Za-z0-9_]*+)++))?+[ \t]*+(?:#.*)?+')
_KIND_CODE = {kind.value: KINDS.index(kind) for kind in NodeKind}
_BATCH = 2048  # plain graph lines read between two conversions of their numeric fields


class _GraphSection(GraphBuilder):
    """The `node` and `arc` lines of GRAPH or of one stage, built into a
    template, with the line each declaration came from.

    `take` reads a run of lines of the plain shapes as strings; `read` takes
    any one line through the cursor, as integers.
    """

    def __init__(self):
        super().__init__()
        self.node_lines, self.arc_lines = array("q"), array("q")
        self.action_tuples: dict[str | None, tuple[str, ...]] = {None: ()}  # by field text
        self.ended = False  # whether a stage's `end` has been read

    def take(self, lines: list[str], index: int) -> int:
        """Read `lines[index:]` up to the first line not of a plain shape,
        flushing every `_BATCH` lines; return its index (or `len(lines)`)."""
        arc_line, node_line = _ARC_LINE.fullmatch, _NODE_LINE.fullmatch
        arc_ids, parents, nums, dens = self.arc_ids, self.parents, self.nums, self.dens
        children, child_starts, actions = self.children, self.child_starts, self.actions
        node_ids, kinds, labels = self.node_ids, self.kinds, self.labels
        arc_lines, node_lines, action_tuples = self.arc_lines, self.node_lines, self.action_tuples
        flush_at, flushed = index + _BATCH, self.flushed_children
        for index in range(index, len(lines)):
            if index == flush_at:
                self.flush()
                flush_at, flushed = index + _BATCH, self.flushed_children
            match = arc_line(lines[index])
            if match is not None:
                aid, parent, kids, num, den, decimals, names = match.groups()
                if decimals is not None:
                    num, den = num + decimals, 10 ** len(decimals)
                arc_ids.append(aid)
                parents.append(parent)
                children.extend(kids.split())
                child_starts.append(flushed + len(children))
                nums.append(num)
                dens.append(den or 1)
                named = action_tuples.get(names)
                if named is None:
                    named = action_tuples[names] = tuple(names.split())
                actions.append(named)
                arc_lines.append(index + 1)
                continue
            match = node_line(lines[index])
            if match is None:
                return index
            nid, kind, label = match.groups()
            node_ids.append(nid)
            kinds.append(_KIND_CODE[kind])
            labels.append(_unescape(label) if "\\" in label else label[1:-1])
            node_lines.append(index + 1)
        return len(lines)

    def read(self, cur: _Cursor):
        """Take any `node` or `arc` line, token by token."""
        head = cur.word("node", "arc")
        if head.value == "node":
            nid = cur.integer()
            kind = cur.word("root", "failure", "leaf", "internal")
            label = cur.string()
            cur.finish()
            self.node(nid, NodeKind(kind.value), label)
            self.node_lines.append(cur.line)
            return
        aid = cur.integer()
        cur.word("parent")
        parent = cur.integer()
        cur.word("children")
        children = [cur.integer()]
        while cur.at("number"):
            children.append(cur.integer())
        cur.word("weight")
        weight, wtok = cur.weight()
        if weight < 0:
            raise ParseError("negative weight", wtok.line, wtok.col)
        actions: list[str] = []
        if cur.maybe_word("actions"):
            actions.append(cur.word().value)
            while cur.at("word"):
                actions.append(cur.word().value)
        cur.finish()
        self.arc(aid, parent, children, weight.numerator, weight.denominator,
                 tuple(actions))
        self.arc_lines.append(cur.line)

    def line_of(self, template: GraphTemplate, element) -> int | None:
        """The line of the last declaration of a `("node" | "arc", id)`."""
        if element is None:
            return None
        kind, eid = element
        ids, lines = ((template.ids, self.node_lines) if kind == "node"
                      else (template.arc_ids, self.arc_lines))
        at = np.flatnonzero(ids == eid)
        return lines[at[-1]] if len(at) else None


# A plain action-block line: `end`, or a key but `duration` followed by words
# only, with blanks between them and no comment; possessive, as above.
_ACTION_LINE = re.compile(r"[ \t]*+(?:end|" + "|".join((*_ROLES, "verb", "pre", "add", "del"))
                          + r")(?:[ \t]++[A-Za-z_][A-Za-z0-9_]*+)*+[ \t]*+")

# OBJECTS' plain `obj` and `marker` lines and ACTIONS' `action <name> <class>`
# heads, in the cursor's order; possessive, as above. A number has at most 18
# digits on each side of its point, so `float` reads it finitely.
_NUM, _WORD = r"(-?[0-9]{1,18}+(?:\.[0-9]{1,18}+)?+)", r"([A-Za-z_][A-Za-z0-9_]*+)"
_OBJ_LINE = re.compile(
    rf"[ \t]*+obj[ \t]++{_WORD}[ \t]++(?:circle[ \t]++{_NUM}|box[ \t]++{_NUM}[ \t]++{_NUM})"
    rf"[ \t]++at[ \t]++{_NUM}[ \t]++{_NUM}[ \t]++(movable|fixed)(?:[ \t]++yaw[ \t]++{_NUM})?+"
    rf"(?:[ \t]++on[ \t]++{_WORD})?+(?:[ \t]++blocks[ \t]++({'|'.join(_BLOCK_TAGS)}))?+"
    r"[ \t]*+(?:#.*)?+")
_MARKER_LINE = re.compile(
    rf"[ \t]*+marker[ \t]++{_WORD}[ \t]++at[ \t]++{_NUM}[ \t]++{_NUM}"
    rf"(?:[ \t]++snap[ \t]++{_NUM})?+([ \t]++handover)?+[ \t]*+(?:#.*)?+")
_ACTION_HEAD = re.compile(rf"[ \t]*+(action)[ \t]++{_WORD}[ \t]++"
                          rf"({'|'.join(m.value for m in MotionClass)})[ \t]*+(?:#.*)?+")


def _fact(cur: _Cursor) -> tuple[Fact, Token]:
    pred = cur.word()
    args = []
    while cur.at("word"):
        args.append(cur.word().value)
    return Fact(pred.value, tuple(args)), pred


class _ActionBlock:
    """An action block's `ActionTemplate` fields, its preconditions and its
    facts as stated (pre, add, del, each in file order) with their lines.
    `take` reads a run of plain lines by splitting them; `read` takes any
    line but `end` through the cursor, which alone makes diagnostics."""

    def __init__(self, name: str, klass: MotionClass):
        self.fields: dict = {"name": name, "motion_class": klass}
        self.pre: list[Condition] = []
        self.stated: dict[str, list[tuple[Fact, int]]] = {"pre": [], "add": [], "del": []}
        self.ended = False  # whether the block's `end` has been read

    def take(self, lines: list[str], index: int) -> int:
        """Read `lines[index:]` through `end`, up to the first line that is
        not plain or whose words do not fit its key; return the index of
        the first line not read."""
        for index in range(index, len(lines)):
            if _ACTION_LINE.fullmatch(lines[index]) is None:
                return index
            key, *words = lines[index].split()
            if key == "end":
                self.ended = not words
                return index + 1 if self.ended else index
            if key in _ROLES or key == "verb":
                if len(words) != 1 or key == "verb" and words[0] not in _VERBS:
                    return index
                self.fields[_ROLES.get(key, key)] = words[0]
                continue
            negated = key == "pre" and words[:1] == ["not"]
            if len(words) == negated:
                return index  # no fact
            fact = Fact(words[negated], tuple(words[negated + 1:]))
            if key == "pre":
                self.pre.append(Condition(fact, negated))
            self.stated[key].append((fact, index + 1))
        return len(lines)

    def read(self, cur: _Cursor):
        # The block reader takes `end`; a wrong key lists it as expected too.
        key = cur.word("end", "duration", *_ROLES, "verb", "pre", "add", "del")
        if key.value == "duration":
            self.fields["duration"], _ = cur.number()
        elif key.value in _ROLES:
            self.fields[_ROLES[key.value]] = cur.word().value
        elif key.value == "verb":
            self.fields["verb"] = cur.word(*_VERBS).value
        else:
            negated = key.value == "pre" and cur.maybe_word("not") is not None
            fact, tok = _fact(cur)
            if key.value == "pre":
                self.pre.append(Condition(fact, negated))
            self.stated[key.value].append((fact, tok.line))
        cur.finish()

    def template(self) -> ActionTemplate:
        add, delete = ([fact for fact, _ in self.stated[key]] for key in ("add", "del"))
        return ActionTemplate(preconditions=tuple(self.pre), effects_add=frozenset(add),
                              effects_del=frozenset(delete), **self.fields)


# ----------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.scenario = Scenario(name="scenario")
        self.bounds_line: int | None = None
        self.section: str | None = None
        self.seen_sections: set[str] = set()
        self.decl_lines: dict[tuple[str, object], int] = {}
        # Each action's facts as stated, with their lines: pre, add, del, each in file order.
        self.action_facts: dict[str, list[tuple[Fact, int]]] = {}
        self.init: list[Fact] = []  # INIT and GOAL facts in file order
        self.goal: list[Fact] = []
        self.graph_section = _GraphSection()
        self.stage_sections: dict[str, _GraphSection] = {}
        # The reader of plain lines: GRAPH's, or that of the stage or action being read.
        self.plain: _GraphSection | _ActionBlock | None = None
        self.graph_line = 1
        self.index = 0

    def parse(self) -> Scenario:
        had_name = False
        for cur in self._cursors():
            head = cur.peek()
            if head.value in SECTIONS:
                cur.word()
                cur.finish()
                if head.value in self.seen_sections:
                    raise ParseError(f"duplicate section {head.value}", head.line, head.col)
                self.seen_sections.add(head.value)
                self.section = head.value
                self.plain = None
                if head.value == "GRAPH":
                    self.plain, self.graph_line = self.graph_section, head.line
                continue
            if head.value == "scenario" and not had_name and self.section is None:
                cur.word()
                self.scenario.name = cur.word().value
                cur.finish()
                had_name = True
                continue
            if self.section is None:
                raise ParseError("content before any section", head.line, head.col,
                                 ("scenario <name>",) + SECTIONS)
            getattr(self, f"_line_{self.section}")(cur)
        self.end_line, self.lines = len(self.lines) + 1, ()  # freed before the main graph's build
        self._resolve()
        return self.scenario

    def _cursors(self):
        """A cursor for each line from `self.index` on that has tokens; while
        OBJECTS, ACTIONS, a graph section or an action block is open, its
        `take` reads the lines of the plain shapes first. The loop ends with
        the text, or once `take` has read the `end` of a block."""
        while True:
            if self.plain is not None:
                self.index = self.plain.take(self.lines, self.index)
                if self.plain.ended:
                    return
            elif self.section in ("OBJECTS", "ACTIONS"):
                self.index = getattr(self, "_take_" + self.section)(self.lines, self.index)
            if self.index == len(self.lines):
                return
            raw = self.lines[self.index]
            self.index += 1
            tokens = _lex_line(raw, self.index)
            if tokens:
                yield _Cursor(tokens, self.index, len(raw))

    def _block(self, head: Token, what: str, block: _GraphSection | _ActionBlock):
        """Read the lines of the block opened at `head` into `block`, up to
        its `end`: runs of plain lines through its `take`, every other line
        with tokens through its `read`."""
        self.plain = block
        for cur in self._cursors():
            if cur.maybe_word("end"):
                cur.finish()
                block.ended = True
                break
            block.read(cur)
        if not block.ended:
            raise ParseError(f"{what} missing end", head.line, head.col, ("end",))
        self.plain = None

    # -- section line handlers -------------------------------------------

    def _line_OBJECTS(self, cur: _Cursor):
        head = cur.word("bounds", "obj", "marker")
        if head.value == "bounds":
            if self.bounds_line is not None:
                raise ParseError("duplicate bounds", head.line, head.col)
            x0, _ = cur.number()
            y0, _ = cur.number()
            x1, tx = cur.number()
            y1, ty = cur.number()
            cur.finish()
            if x1 <= x0:
                raise ParseError("bounds must satisfy x0 < x1", tx.line, tx.col)
            if y1 <= y0:
                raise ParseError("bounds must satisfy y0 < y1", ty.line, ty.col)
            _, _, nx, ny = grid_shape((x0, y0, x1, y1), DEFAULT_RESOLUTION)
            if nx * ny > MAX_GRID_CELLS:
                raise ParseError(f"bounds span {nx * ny} grid cells, more than "
                                 f"{MAX_GRID_CELLS}", head.line, head.col)
            self.scenario.bounds = (x0, y0, x1, y1)
            self.bounds_line = head.line
            return
        name = cur.word()
        if head.value == "obj":
            shape = cur.word("circle", "box")
            if shape.value == "circle":
                dims: tuple[float, ...] = (cur.positive("radius"),)
            else:
                dims = (cur.positive("width"), cur.positive("height"))
            cur.word("at")
            x, _ = cur.number()
            y, _ = cur.number()
            mobility = cur.word("movable", "fixed")
            yaw = cur.number()[0] if cur.maybe_word("yaw") else 0.0
            on = cur.word().value if cur.maybe_word("on") else None
            blocks = cur.word(*_BLOCK_TAGS).value if cur.maybe_word("blocks") else "all"
            cur.finish()
            self._declare(name, self.scenario.objects, Obj, shape.value, dims, x, y, yaw,
                          mobility.value == "movable", blocks, on)
            return
        cur.word("at")
        x, _ = cur.number()
        y, _ = cur.number()
        snap = cur.positive("snap radius") if cur.maybe_word("snap") else DEFAULT_SNAP
        handover = cur.maybe_word("handover") is not None
        cur.finish()
        self._declare(name, self.scenario.markers, Marker, x, y, snap, handover)

    def _take_OBJECTS(self, lines: list[str], index: int) -> int:
        """Read `lines[index:]` up to the first line that is not a plain `obj`
        or `marker` line with positive sizes; return its index (or `len(lines)`)."""
        for index in range(index, len(lines)):
            if match := _OBJ_LINE.fullmatch(lines[index]):
                name, radius, width, height, x, y, mobility, yaw, on, blocks = match.groups()
                sizes = (float(radius),) if radius else (float(width), float(height))
                entry = (self.scenario.objects, Obj, "box" if width else "circle", sizes, float(x),
                         float(y), float(yaw or 0), mobility == "movable", blocks or "all", on)
            elif match := _MARKER_LINE.fullmatch(lines[index]):
                name, x, y, snap, handover = match.groups()
                sizes = (float(snap or DEFAULT_SNAP),)  # a marker's one size, its snap radius
                entry = (self.scenario.markers, Marker, float(x), float(y), *sizes, bool(handover))
            if match is None or min(sizes) <= 0:
                return index
            self._declare(Token("word", name, index + 1, match.start(1) + 1), *entry)
        return len(lines)

    def _line_AGENTS(self, cur: _Cursor):
        head = cur.word("arm", "base")
        name = cur.word()
        cur.word("at")
        x, _ = cur.number()
        y, _ = cur.number()
        if head.value == "arm":
            cur.word("reach")
            reach = cur.positive("reach")
            mount, dx, dy = None, 0.0, 0.0
            if cur.maybe_word("mount"):
                mount = cur.word().value
                cur.word("offset")
                dx, _ = cur.number()
                dy, _ = cur.number()
            cur.finish()
            self._declare(name, self.scenario.agents, Agent, "arm", anchor=(x, y), reach=reach,
                          mount=mount, mount_off=(dx, dy))
        else:
            cur.word("radius")
            radius = cur.positive("radius")
            cur.finish()
            self._declare(name, self.scenario.agents, Agent, "base", anchor=(x, y), radius=radius)

    def _line_PREDICATES(self, cur: _Cursor):
        cur.word("pred")
        name = cur.word()
        arity = cur.integer()
        exclusive = cur.maybe_word("exclusive") is not None
        cur.finish()
        if name.value in self.scenario.predicates:
            raise ParseError(f"duplicate predicate {name.value}", name.line, name.col)
        if name.value in BUILTIN_PREDICATE_DECLS:
            raise ParseError(f"predicate {name.value} is built in", name.line, name.col)
        self.scenario.predicates[name.value] = PredicateDecl(name.value, arity, exclusive)

    def _line_ACTIONS(self, cur: _Cursor):
        head = cur.word("action")
        name = cur.word()
        klass = cur.word(*(m.value for m in MotionClass))
        cur.finish()
        self._action(head, name, klass.value)

    def _take_ACTIONS(self, lines: list[str], index: int) -> int:
        """Read each plain `action` head from `lines[index:]` with its block;
        return the index of the first other line (or `len(lines)`)."""
        while index < len(lines) and (match := _ACTION_HEAD.fullmatch(lines[index])):
            self.index = index + 1
            self._action(Token("word", "action", self.index, match.start(1) + 1),
                         Token("word", match[2], self.index, match.start(2) + 1), match[3])
            index = self.index
        return index

    def _action(self, head: Token, name: Token, klass: str):
        """Declare action `name` with the block that follows its `head`."""
        if name.value in self.scenario.actions:
            raise ParseError(f"duplicate action {name.value}", name.line, name.col)
        block = _ActionBlock(name.value, MotionClass(klass))
        self._block(head, f"action {name.value}", block)
        try:
            template = block.template()
        except InvalidState as exc:
            raise ResolveError(str(exc), name.line, name.col) from exc
        self.scenario.actions[name.value] = template
        self.decl_lines[("action", name.value)] = name.line
        stated = block.stated
        self.action_facts[name.value] = stated["pre"] + stated["add"] + stated["del"]

    def _line_INIT(self, cur: _Cursor):
        fact, tok = _fact(cur)
        cur.finish()
        if fact.predicate in DERIVED_PREDICATES:
            raise ResolveError(
                f"predicate {fact.predicate} is derived from geometry and cannot be "
                "asserted initially", tok.line, tok.col)
        self.init.append(fact)
        self.decl_lines.setdefault(("init", fact), tok.line)

    def _line_GOAL(self, cur: _Cursor):
        fact, tok = _fact(cur)
        cur.finish()
        self.goal.append(fact)
        self.decl_lines.setdefault(("goal", fact), tok.line)

    def _line_GRAPH(self, cur: _Cursor):
        self.graph_section.read(cur)

    def _line_STAGES(self, cur: _Cursor):
        head = cur.word("stage")
        name = cur.word()
        cur.finish()
        if name.value in self.scenario.stages:
            raise ParseError(f"duplicate stage {name.value}", name.line, name.col)
        section = _GraphSection()
        self._block(head, f"stage {name.value}", section)
        self.scenario.stages[name.value] = self._template(
            section, f"stage {name.value}", name.line, name.col)
        self.stage_sections[name.value] = section

    # -- shared helpers ---------------------------------------------------

    def _declare(self, name: Token, table: dict, kind: type, *fields, **named):
        """Enter `kind(name, *fields, **named)` in `table`; an id declared twice is an error."""
        key = ("entity", name.value)
        if key in self.decl_lines:
            raise ParseError(f"duplicate entity id {name.value}", name.line, name.col)
        self.decl_lines[key] = name.line
        table[name.value] = kind(name.value, *fields, **named)

    def _template(self, section: _GraphSection, what: str, line: int,
                  col: int) -> GraphTemplate:
        template = section.template()
        try:
            template.checked
        except GraphError as exc:
            at = section.line_of(template, exc.element)
            if at is None:
                raise ResolveError(f"{what}: {exc}", line, col) from exc
            raise ResolveError(f"{what}: {exc}", at, 1) from exc
        return template

    # -- resolution -------------------------------------------------------

    def _at(self, key) -> tuple[int, int]:
        return self.decl_lines.get(key, 1), 1

    def _resolve(self):
        scn = self.scenario
        if self.bounds_line is None:
            raise ResolveError("missing bounds line in OBJECTS", self.end_line, 1)
        scn.init, scn.goal = tuple(self.init), tuple(self.goal)
        entities = scn.entity_ids()
        predicates = scn.all_predicates()

        for obj in scn.objects.values():
            line, col = self._at(("entity", obj.id))
            if obj.stack_on is not None and obj.stack_on not in scn.objects:
                raise ResolveError(
                    f"object {obj.id} rests on unknown object {obj.stack_on}", line, col)
            if obj.stack_on is not None and not obj.movable:
                raise ResolveError(f"fixed object {obj.id} cannot rest on another",
                                   line, col)
        acyclic: set[str] = set()
        for obj in scn.objects.values():
            chain: list[str] = []
            current = obj.id
            while current is not None and current not in acyclic:
                if current in chain:
                    cycle = chain[chain.index(current):] + [current]
                    line, col = self._at(("entity", current))
                    raise ResolveError("stacking cycle: " + " on ".join(cycle), line, col)
                chain.append(current)
                current = scn.objects[current].stack_on
            acyclic.update(chain)
        for agent in scn.agents.values():
            line, col = self._at(("entity", agent.id))
            if agent.mount is not None:
                target = scn.agents.get(agent.mount)
                if target is None or target.kind != "base":
                    raise ResolveError(
                        f"arm {agent.id} mounts unknown base {agent.mount}", line, col)

        for action in scn.actions.values():
            line, col = self._at(("action", action.name))
            for role, attr in _ROLES.items():
                value = getattr(action, attr)
                if value is not None and value not in entities:
                    raise ResolveError(
                        f"action {action.name}: {role} references unknown id {value}",
                        line, col)
            if action.manipulated is not None:
                target = scn.objects.get(action.manipulated)
                if target is None or not target.movable:
                    raise ResolveError(
                        f"action {action.name}: obj must name a movable object",
                        line, col)
            if action.area is not None and action.area not in scn.markers:
                raise ResolveError(
                    f"action {action.name}: area must name a marker", line, col)
            if action.agent is not None and action.agent not in scn.agents:
                raise ResolveError(
                    f"action {action.name}: agent must name an agent", line, col)
            for fact, at in self.action_facts[action.name]:
                self._check_fact(fact, predicates, entities, at)

        held: dict[tuple, Fact] = {}  # the first fact of each exclusive key
        for fact in scn.init:
            line = self.decl_lines.get(("init", fact), 1)
            self._check_fact(fact, predicates, entities, line)
            if predicates[fact.predicate].exclusive:
                first = held.setdefault((fact.predicate, fact.args[:1]), fact)
                if first != fact:
                    raise ResolveError(f"exclusive predicate {fact.predicate}: "
                                       f"{fact.text()} conflicts with {first.text()}", line, 1)
        if not scn.goal:
            raise ResolveError("GOAL section must state at least one fact", self.end_line, 1)
        for fact in scn.goal:
            self._check_fact(fact, predicates, entities,
                             self.decl_lines.get(("goal", fact), 1))

        if not self.graph_section.kinds:
            raise ResolveError("missing GRAPH section", self.end_line, 1)
        scn.graph = self._template(self.graph_section, "graph", self.graph_line, 1)
        self._check_template(scn.graph, self.graph_section, predicates)
        for name, template in scn.stages.items():
            self._check_template(template, self.stage_sections[name], predicates)

    def _check_fact(self, fact: Fact, predicates, entities, line: int):
        decl = predicates.get(fact.predicate)
        if decl is None:
            raise ResolveError(f"unknown predicate {fact.predicate}", line, 1)
        if decl.arity != len(fact.args):
            raise ResolveError(
                f"predicate {fact.predicate} expects {decl.arity} arguments, "
                f"got {len(fact.args)}", line, 1)
        for arg in fact.args:
            if arg not in entities:
                raise ResolveError(f"unknown entity {arg}", line, 1)

    def _check_template(self, template: GraphTemplate, section: _GraphSection, predicates):
        """Leaf labels state declared facts and arcs name declared actions;
        the template is valid, so each id has one declaration line."""
        entities = self.scenario.entity_ids()
        for i in np.flatnonzero(template.kinds == _KIND_CODE["leaf"]).tolist():
            line = section.node_lines[i]
            try:
                fact = Fact.parse(template.labels[i])
            except ValueError:
                raise ResolveError(f"leaf {int(template.ids[i])} label is not a fact",
                                   line, 1)
            self._check_fact(fact, predicates, entities, line)
        if set().union(*template.actions) <= self.scenario.actions.keys():
            return
        for j, actions in enumerate(template.actions):
            for action in actions:
                if action not in self.scenario.actions:
                    raise ResolveError(
                        f"arc {int(template.arc_ids[j])} references unknown action {action}",
                        section.arc_lines[j], 1)


def parse(text: str) -> Scenario:
    return _Parser(text).parse()


def parse_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


# ------------------------------------------------------------- serializer


def fmt_float(value: float) -> str:
    text = f"{value:.9f}".rstrip("0").rstrip(".")
    if text in ("", "-0"):
        return "0"
    return text


def fmt_weight(weight: Fraction) -> str:
    if weight.denominator == 1:
        return str(weight.numerator)
    scaled = weight.numerator * 10**9
    if scaled % weight.denominator == 0:
        sign = "-" if scaled < 0 else ""
        whole, frac = divmod(abs(scaled) // weight.denominator, 10**9)
        return sign + f"{whole}.{frac:09d}".rstrip("0").rstrip(".")
    return f"{weight.numerator}/{weight.denominator}"


def _obj_line(obj: Obj) -> str:
    dims = " ".join(fmt_float(d) for d in obj.dims)
    parts = [f"obj {obj.id} {obj.shape} {dims} at {fmt_float(obj.x)} {fmt_float(obj.y)}",
             "movable" if obj.movable else "fixed"]
    if obj.yaw:
        parts.append(f"yaw {fmt_float(obj.yaw)}")
    if obj.stack_on is not None:
        parts.append(f"on {obj.stack_on}")
    if obj.blocks != "all":
        parts.append(f"blocks {obj.blocks}")
    return " ".join(parts)


def _marker_line(marker: Marker) -> str:
    parts = [f"marker {marker.id} at {fmt_float(marker.x)} {fmt_float(marker.y)}"]
    if marker.snap != DEFAULT_SNAP:
        parts.append(f"snap {fmt_float(marker.snap)}")
    if marker.handover:
        parts.append("handover")
    return " ".join(parts)


def _agent_line(agent: Agent) -> str:
    at = f"{agent.id} at {fmt_float(agent.anchor[0])} {fmt_float(agent.anchor[1])}"
    if agent.kind == "base":
        return f"base {at} radius {fmt_float(agent.radius)}"
    line = f"arm {at} reach {fmt_float(agent.reach)}"
    if agent.mount is not None:
        dx, dy = agent.mount_off
        line += f" mount {agent.mount} offset {fmt_float(dx)} {fmt_float(dy)}"
    return line


def _action_lines(action: ActionTemplate) -> list[str]:
    out = [f"action {action.name} {action.motion_class.value}"]
    if action.duration:
        out.append(f"  duration {fmt_float(action.duration)}")
    for role, attr in _ROLES.items():
        if getattr(action, attr) is not None:
            out.append(f"  {role} {getattr(action, attr)}")
    # The verb binds only transfers, but a stated one round-trips.
    if (action.is_geometric() and action.motion_class is not MotionClass.TRANSIT
            or action.verb != ActionTemplate.verb):
        out.append(f"  verb {action.verb}")
    for condition in action.preconditions:
        out.append("  pre " + condition.text())
    for fact in sorted(action.effects_add):
        out.append("  add " + fact.text())
    for fact in sorted(action.effects_del):
        out.append("  del " + fact.text())
    out.append("end")
    return out


def _template_lines(template: GraphTemplate, indent: str = "") -> list[str]:
    nodes, arcs = template.rows()
    out = [f'{indent}node {nid} {kind.value} "{escape_label(label)}"' for nid, kind, label in nodes]
    for aid, parent, children, weight, actions in arcs:
        line = (f"{indent}arc {aid} parent {parent} children "
                + " ".join(map(str, children)) + f" weight {fmt_weight(weight)}")
        if actions:
            line += " actions " + " ".join(actions)
        out.append(line)
    return out


def serialize(scn: Scenario) -> str:
    out = [f"scenario {scn.name}", ""]
    out.append("OBJECTS")
    out.append("bounds " + " ".join(fmt_float(v) for v in scn.bounds))
    for oid in sorted(scn.objects):
        out.append(_obj_line(scn.objects[oid]))
    for mid in sorted(scn.markers):
        out.append(_marker_line(scn.markers[mid]))
    if scn.agents:
        out.extend(["", "AGENTS"])
        for aid in sorted(scn.agents):
            out.append(_agent_line(scn.agents[aid]))
    if scn.predicates:
        out.extend(["", "PREDICATES"])
        for name in sorted(scn.predicates):
            decl = scn.predicates[name]
            suffix = " exclusive" if decl.exclusive else ""
            out.append(f"pred {decl.name} {decl.arity}{suffix}")
    if scn.actions:
        out.extend(["", "ACTIONS"])
        for name in sorted(scn.actions):
            out.extend(_action_lines(scn.actions[name]))
    if scn.init:
        out.extend(["", "INIT"])
        for fact in sorted(set(scn.init)):
            out.append(fact.text())
    out.extend(["", "GOAL"])
    for fact in sorted(set(scn.goal)):
        out.append(fact.text())
    out.extend(["", "GRAPH"])
    out.extend(_template_lines(scn.graph))
    if scn.stages:
        out.extend(["", "STAGES"])
        for name in sorted(scn.stages):
            out.append(f"stage {name}")
            out.extend(_template_lines(scn.stages[name], "  "))
            out.append("end")
    return "\n".join(out) + "\n"
