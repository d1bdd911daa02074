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

A graph (GRAPH, or one stage of STAGES) is read into columns, not
objects. Two line shapes are read with one whole-line pattern each,
without tokens: `node <id> <kind> "<label>"` and `arc <id> parent <id>
children <id>... weight <w> [actions <name>...]`, with blanks between the
parts, unsigned ASCII numbers of at most 18 digits, a weight that is an
integer, a decimal or a fraction with a non-zero denominator, and an
optional trailing comment. Their fields are appended, as strings, to the
lists of the section. Every other line, including each one that is wrong,
goes through the token cursor, which alone makes diagnostics and appends
the same fields as integers. When the section ends its lists become the
integer columns of an `andor.GraphTemplate` in a few bulk conversions,
and the template is validated over those columns; an error about a node
or an arc is located through the line kept for each declaration.

Parsing fails fast: the first problem raises one diagnostic carrying the
line and column. `serialize` emits a canonical form (sections in a fixed
order, entries sorted, numbers in their shortest exact spelling) that
parses back to an equal scenario.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .andor import KINDS, GraphError, GraphTemplate, int_column
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
from .world import DEFAULT_RESOLUTION, DEFAULT_SNAP, MAX_GRID_CELLS, grid_shape

SECTIONS = ("OBJECTS", "AGENTS", "PREDICATES", "ACTIONS", "INIT", "GOAL",
            "GRAPH", "STAGES")
_BLOCK_TAGS = ("all", "arm", "base")


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


@dataclass(frozen=True)
class ObjDecl:
    id: str
    shape: str
    dims: tuple[float, ...]
    x: float
    y: float
    movable: bool
    yaw: float = 0.0
    on: str | None = None
    blocks: str = "all"


@dataclass(frozen=True)
class MarkerDecl:
    id: str
    x: float
    y: float
    snap: float = DEFAULT_SNAP
    handover: bool = False


@dataclass(frozen=True)
class AgentDecl:
    id: str
    kind: str
    x: float
    y: float
    reach: float = 0.0
    radius: float = 0.0
    mount: str | None = None
    mount_dx: float = 0.0
    mount_dy: float = 0.0


@dataclass
class Scenario:
    name: str
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    objects: dict[str, ObjDecl] = field(default_factory=dict)
    markers: dict[str, MarkerDecl] = field(default_factory=dict)
    agents: dict[str, AgentDecl] = field(default_factory=dict)
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


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#.*)
  | (?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<badstring>"(?:[^"\\]|\\.)*$)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # "word" | "number" | "string"
    value: str
    line: int
    col: int


def _lex_line(text: str, line_no: int) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise LexError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = match.lastgroup
        if kind == "comment":
            break
        if kind == "badstring":
            raise LexError("unterminated string", line_no, match.start() + 1)
        if kind != "ws":
            tokens.append(Token(kind, match.group(), line_no, match.start() + 1))
        pos = match.end()
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

    def _fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line, self.end_col, expected)
        raise ParseError(f"unexpected {tok.kind} {tok.value!r}", tok.line, tok.col, expected)

    def word(self, *expected: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "word" or (expected and tok.value not in expected):
            self._fail(expected or ("identifier",))
        self.index += 1
        return tok

    def number(self) -> tuple[float, Token]:
        tok = self.peek()
        if tok is None or tok.kind != "number" or "/" in tok.value:
            self._fail(("number",))
        self.index += 1
        value = float(tok.value)
        if math.isinf(value):
            raise ParseError("number out of range", tok.line, tok.col)
        return value, tok

    def integer(self) -> tuple[int, Token]:
        tok = self.peek()
        if tok is None or tok.kind != "number" or "." in tok.value or "/" in tok.value \
                or tok.value.startswith("-"):
            self._fail(("non-negative integer",))
        self.index += 1
        return _convert(int, tok.value, tok), tok

    def weight(self) -> tuple[Fraction, Token]:
        tok = self.peek()
        if tok is None or tok.kind != "number":
            self._fail(("weight",))
        self.index += 1
        if "/" in tok.value:
            num, den = tok.value.split("/")
            if "." in num:
                raise ParseError("fraction weight needs a whole numerator", tok.line, tok.col)
            den = _convert(int, den, tok)
            if den == 0:
                raise ParseError("zero denominator", tok.line, tok.col)
            return Fraction(_convert(int, num, tok), den), tok
        return _convert(Fraction, tok.value, tok), tok

    def string(self) -> tuple[str, Token]:
        tok = self.peek()
        if tok is None or tok.kind != "string":
            self._fail(("quoted label",))
        self.index += 1
        return _unescape(tok.value), tok

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


def _escape(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# The plain `node` and `arc` shapes of the module docstring, which make up
# nearly all of a large graph's text. A label is the lexer's string pattern
# with its loop unrolled: the same strings, matched about four times faster.
# Every line these accept lexes into the same tokens and reads to the same
# fields through the cursor. A number has at most 18 digits, so it fits in
# 64 bits and its conversion cannot fail; a longer one is left to the cursor.
_NODE_LINE = re.compile(
    r'[ \t]*node[ \t]+([0-9]{1,18})[ \t]+(root|failure|leaf|internal)[ \t]+'
    r'("[^"\\]*(?:\\.[^"\\]*)*")[ \t]*(?:#.*)?')
_ARC_LINE = re.compile(
    r'[ \t]*arc[ \t]+([0-9]{1,18})[ \t]+parent[ \t]+([0-9]{1,18})[ \t]+children'
    r'((?:[ \t]+[0-9]{1,18})+)[ \t]+weight[ \t]+([0-9]{1,18})'
    r'(?:/([1-9][0-9]{0,17})|\.([0-9]{1,18}))?'
    r'(?:[ \t]+actions((?:[ \t]+[A-Za-z_][A-Za-z0-9_]*)+))?[ \t]*(?:#.*)?')
_KIND_CODE = {kind.value: code for code, kind in enumerate(KINDS)}


class _GraphSection:
    """The fields of the `node` and `arc` lines of GRAPH or of one stage, in
    declaration order, with the line each came from.

    `match` takes a line of a plain shape as strings; `read` takes any
    line through the cursor, as integers. `template` converts the lists to
    the template's columns in bulk.
    """

    def __init__(self):
        self.node_ids: list = []
        self.kinds: list[int] = []
        self.labels: list[str] = []
        self.node_lines: list[int] = []
        self.arc_ids: list = []
        self.parents: list = []
        self.children: list = []
        self.child_starts = [0]
        self.nums: list = []
        self.dens: list = []
        self.actions: list[tuple[str, ...]] = []
        self.arc_lines: list[int] = []

    def match(self, raw: str, line_no: int) -> bool:
        """Take a `node` or `arc` line of a plain shape; False for any other."""
        match = _ARC_LINE.fullmatch(raw)
        if match is not None:
            aid, parent, children, num, den, decimals, actions = match.groups()
            if decimals is not None:
                num, den = num + decimals, 10 ** len(decimals)
            self._arc(aid, parent, children.split(), num, den or 1,
                      tuple(actions.split()) if actions else (), line_no)
            return True
        match = _NODE_LINE.fullmatch(raw)
        if match is None:
            return False
        nid, kind, label = match.groups()
        self._node(nid, _KIND_CODE[kind], _unescape(label), line_no)
        return True

    def read(self, cur: _Cursor):
        """Take any `node` or `arc` line, token by token."""
        head = cur.word("node", "arc")
        if head.value == "node":
            nid, _ = cur.integer()
            kind = cur.word("root", "failure", "leaf", "internal")
            label, _ = cur.string()
            cur.finish()
            self._node(nid, _KIND_CODE[kind.value], label, cur.line)
            return
        aid, _ = cur.integer()
        cur.word("parent")
        parent, _ = cur.integer()
        cur.word("children")
        children = []
        first, _ = cur.integer()
        children.append(first)
        while True:
            tok = cur.peek()
            if tok is None or tok.kind != "number":
                break
            value, _ = cur.integer()
            children.append(value)
        cur.word("weight")
        weight, wtok = cur.weight()
        if weight < 0:
            raise ParseError("negative weight", wtok.line, wtok.col)
        actions: list[str] = []
        if cur.maybe_word("actions"):
            actions.append(cur.word().value)
            while True:
                tok = cur.peek()
                if tok is None or tok.kind != "word":
                    break
                actions.append(cur.word().value)
        cur.finish()
        self._arc(aid, parent, children, weight.numerator, weight.denominator,
                  tuple(actions), cur.line)

    def _node(self, nid, kind: int, label: str, line_no: int):
        self.node_ids.append(nid)
        self.kinds.append(kind)
        self.labels.append(label)
        self.node_lines.append(line_no)

    def _arc(self, aid, parent, children: list, num, den, actions: tuple[str, ...],
             line_no: int):
        self.arc_ids.append(aid)
        self.parents.append(parent)
        self.children.extend(children)
        self.child_starts.append(len(self.children))
        self.nums.append(num)
        self.dens.append(den)
        self.actions.append(actions)
        self.arc_lines.append(line_no)

    def template(self) -> GraphTemplate:
        num, den = int_column(self.nums), int_column(self.dens)
        common = np.gcd(num, den)
        return GraphTemplate(int_column(self.node_ids), np.array(self.kinds, dtype=np.int8),
                             tuple(self.labels), int_column(self.arc_ids),
                             int_column(self.parents), np.array(self.child_starts),
                             int_column(self.children), num // common, den // common,
                             tuple(self.actions))

    def line_of(self, template: GraphTemplate, element) -> int | None:
        """The line of the last declaration of a `("node" | "arc", id)`."""
        if element is None:
            return None
        kind, eid = element
        ids, lines = ((template.ids, self.node_lines) if kind == "node"
                      else (template.arc_ids, self.arc_lines))
        at = np.flatnonzero(ids == eid)
        return lines[at[-1]] if len(at) else None


# ----------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.scenario = Scenario(name="scenario")
        self.bounds_line: int | None = None
        self.section: str | None = None
        self.seen_sections: set[str] = set()
        self.decl_lines: dict[tuple[str, object], int] = {}
        self.entity_ids: set[str] = set()  # objects, markers and agents declared so far
        self.graph_section = _GraphSection()
        self.stage_sections: dict[str, _GraphSection] = {}
        self.graph_line = 1
        self.index = 0

    def parse(self) -> Scenario:
        had_name = False
        while self.index < len(self.lines):
            line_no = self.index + 1
            raw = self.lines[self.index]
            self.index += 1
            if self.section == "GRAPH" and self.graph_section.match(raw, line_no):
                continue
            tokens = _lex_line(raw, line_no)
            if not tokens:
                continue
            cur = _Cursor(tokens, line_no, len(raw))
            head = tokens[0]
            if head.kind == "word" and head.value in SECTIONS:
                cur.word()
                cur.finish()
                if head.value in self.seen_sections:
                    raise ParseError(f"duplicate section {head.value}", head.line, head.col)
                self.seen_sections.add(head.value)
                self.section = head.value
                if head.value == "GRAPH":
                    self.graph_line = head.line
                continue
            if head.kind == "word" and head.value == "scenario" and not had_name \
                    and self.section is None:
                cur.word()
                self.scenario.name = cur.word().value
                cur.finish()
                had_name = True
                continue
            if self.section is None:
                raise ParseError("content before any section", head.line, head.col,
                                 ("scenario <name>",) + SECTIONS)
            getattr(self, f"_line_{self.section}")(cur)
        self._resolve()
        return self.scenario

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
        if head.value == "obj":
            name = cur.word()
            shape = cur.word("circle", "box")
            if shape.value == "circle":
                r, tr = cur.number()
                if r <= 0:
                    raise ParseError("radius must be positive", tr.line, tr.col)
                dims: tuple[float, ...] = (r,)
            else:
                w, tw = cur.number()
                h, th = cur.number()
                if w <= 0:
                    raise ParseError("width must be positive", tw.line, tw.col)
                if h <= 0:
                    raise ParseError("height must be positive", th.line, th.col)
                dims = (w, h)
            cur.word("at")
            x, _ = cur.number()
            y, _ = cur.number()
            mobility = cur.word("movable", "fixed")
            yaw = 0.0
            if cur.maybe_word("yaw"):
                yaw, _ = cur.number()
            on = None
            if cur.maybe_word("on"):
                on = cur.word().value
            blocks = "all"
            if cur.maybe_word("blocks"):
                blocks = cur.word(*_BLOCK_TAGS).value
            cur.finish()
            self._declare(name)
            self.scenario.objects[name.value] = ObjDecl(
                name.value, shape.value, dims, x, y,
                mobility.value == "movable", yaw, on, blocks)
            self.decl_lines[("entity", name.value)] = name.line
            return
        name = cur.word()
        cur.word("at")
        x, _ = cur.number()
        y, _ = cur.number()
        snap = DEFAULT_SNAP
        if cur.maybe_word("snap"):
            snap, ts = cur.number()
            if snap <= 0:
                raise ParseError("snap radius must be positive", ts.line, ts.col)
        handover = cur.maybe_word("handover") is not None
        cur.finish()
        self._declare(name)
        self.scenario.markers[name.value] = MarkerDecl(name.value, x, y, snap, handover)
        self.decl_lines[("entity", name.value)] = name.line

    def _line_AGENTS(self, cur: _Cursor):
        head = cur.word("arm", "base")
        name = cur.word()
        cur.word("at")
        x, _ = cur.number()
        y, _ = cur.number()
        if head.value == "arm":
            cur.word("reach")
            reach, tr = cur.number()
            if reach <= 0:
                raise ParseError("reach must be positive", tr.line, tr.col)
            mount, dx, dy = None, 0.0, 0.0
            if cur.maybe_word("mount"):
                mount = cur.word().value
                cur.word("offset")
                dx, _ = cur.number()
                dy, _ = cur.number()
            cur.finish()
            decl = AgentDecl(name.value, "arm", x, y, reach=reach,
                             mount=mount, mount_dx=dx, mount_dy=dy)
        else:
            cur.word("radius")
            radius, tr = cur.number()
            if radius <= 0:
                raise ParseError("radius must be positive", tr.line, tr.col)
            cur.finish()
            decl = AgentDecl(name.value, "base", x, y, radius=radius)
        self._declare(name)
        self.scenario.agents[name.value] = decl
        self.decl_lines[("entity", name.value)] = name.line

    def _line_PREDICATES(self, cur: _Cursor):
        cur.word("pred")
        name = cur.word()
        arity, _ = cur.integer()
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
        if name.value in self.scenario.actions:
            raise ParseError(f"duplicate action {name.value}", name.line, name.col)
        fields: dict = {"name": name.value, "motion_class": MotionClass(klass.value)}
        pre: list[Condition] = []
        add: set[Fact] = set()
        delete: set[Fact] = set()
        closed = False
        while self.index < len(self.lines):
            line_no = self.index + 1
            raw = self.lines[self.index]
            self.index += 1
            tokens = _lex_line(raw, line_no)
            if not tokens:
                continue
            inner = _Cursor(tokens, line_no, len(raw))
            key = inner.word("end", "duration", "agent", "area", "obj", "from",
                             "to", "verb", "pre", "add", "del")
            if key.value == "end":
                inner.finish()
                closed = True
                break
            if key.value == "duration":
                fields["duration"], _ = inner.number()
            elif key.value == "agent":
                fields["agent"] = inner.word().value
            elif key.value == "area":
                fields["area"] = inner.word().value
            elif key.value == "obj":
                fields["manipulated"] = inner.word().value
            elif key.value == "from":
                fields["source"] = inner.word().value
            elif key.value == "to":
                fields["dest"] = inner.word().value
            elif key.value == "verb":
                fields["verb"] = inner.word("transfer", "grasp", "put").value
            else:
                negated = key.value == "pre" and inner.maybe_word("not") is not None
                fact, tok = self._fact(inner)
                if key.value == "pre":
                    pre.append(Condition(fact, negated))
                elif key.value == "add":
                    add.add(fact)
                else:
                    delete.add(fact)
                self.decl_lines[("fact", (name.value, key.value, fact))] = tok.line
            inner.finish()
        if not closed:
            raise ParseError(f"action {name.value} missing end", head.line, head.col,
                             ("end",))
        try:
            template = ActionTemplate(preconditions=tuple(pre), effects_add=frozenset(add),
                                      effects_del=frozenset(delete), **fields)
        except InvalidState as exc:
            raise ResolveError(str(exc), name.line, name.col) from exc
        self.scenario.actions[name.value] = template
        self.decl_lines[("action", name.value)] = name.line

    def _fact(self, cur: _Cursor) -> tuple[Fact, Token]:
        pred = cur.word()
        args = []
        while True:
            tok = cur.peek()
            if tok is None or tok.kind != "word":
                break
            cur.index += 1
            args.append(tok.value)
        return Fact(pred.value, tuple(args)), pred

    def _line_INIT(self, cur: _Cursor):
        fact, tok = self._fact(cur)
        cur.finish()
        if fact.predicate in DERIVED_PREDICATES:
            raise ResolveError(
                f"predicate {fact.predicate} is derived from geometry and cannot be "
                "asserted initially", tok.line, tok.col)
        self.scenario.init = self.scenario.init + (fact,)
        self.decl_lines[("init", fact)] = tok.line

    def _line_GOAL(self, cur: _Cursor):
        fact, tok = self._fact(cur)
        cur.finish()
        self.scenario.goal = self.scenario.goal + (fact,)
        self.decl_lines[("goal", fact)] = tok.line

    def _line_GRAPH(self, cur: _Cursor):
        self.graph_section.read(cur)

    def _line_STAGES(self, cur: _Cursor):
        head = cur.word("stage")
        name = cur.word()
        cur.finish()
        if name.value in self.scenario.stages:
            raise ParseError(f"duplicate stage {name.value}", name.line, name.col)
        section = _GraphSection()
        closed = False
        while self.index < len(self.lines):
            line_no = self.index + 1
            raw = self.lines[self.index]
            self.index += 1
            if section.match(raw, line_no):
                continue
            tokens = _lex_line(raw, line_no)
            if not tokens:
                continue
            inner = _Cursor(tokens, line_no, len(raw))
            if inner.maybe_word("end"):
                inner.finish()
                closed = True
                break
            section.read(inner)
        if not closed:
            raise ParseError(f"stage {name.value} missing end", head.line, head.col,
                             ("end",))
        self.scenario.stages[name.value] = self._template(
            section, f"stage {name.value}", name.line, name.col)
        self.stage_sections[name.value] = section

    # -- shared helpers ---------------------------------------------------

    def _declare(self, name: Token):
        if name.value in self.entity_ids:
            raise ParseError(f"duplicate entity id {name.value}", name.line, name.col)
        self.entity_ids.add(name.value)

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
            raise ResolveError("missing bounds line in OBJECTS",
                               len(self.lines) + 1, 1)
        entities = scn.entity_ids()
        predicates = scn.all_predicates()

        for obj in scn.objects.values():
            line, col = self._at(("entity", obj.id))
            if obj.on is not None and obj.on not in scn.objects:
                raise ResolveError(f"object {obj.id} rests on unknown object {obj.on}",
                                   line, col)
            if obj.on is not None and not obj.movable:
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
                current = scn.objects[current].on
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
            for role, value in (("agent", action.agent), ("obj", action.manipulated),
                                ("from", action.source), ("to", action.dest),
                                ("area", action.area)):
                if value is None:
                    continue
                if value not in entities:
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
            for kind, facts in (("pre", [c.fact for c in action.preconditions]),
                                ("add", action.effects_add), ("del", action.effects_del)):
                for fact in facts:
                    at = self.decl_lines.get(("fact", (action.name, kind, fact)), line)
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
            raise ResolveError("GOAL section must state at least one fact",
                               len(self.lines) + 1, 1)
        for fact in scn.goal:
            self._check_fact(fact, predicates, entities,
                             self.decl_lines.get(("goal", fact), 1))

        if not self.graph_section.node_ids:
            raise ResolveError("missing GRAPH section", len(self.lines) + 1, 1)
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


def _obj_line(obj: ObjDecl) -> str:
    dims = " ".join(fmt_float(d) for d in obj.dims)
    parts = [f"obj {obj.id} {obj.shape} {dims} at {fmt_float(obj.x)} {fmt_float(obj.y)}",
             "movable" if obj.movable else "fixed"]
    if obj.yaw:
        parts.append(f"yaw {fmt_float(obj.yaw)}")
    if obj.on is not None:
        parts.append(f"on {obj.on}")
    if obj.blocks != "all":
        parts.append(f"blocks {obj.blocks}")
    return " ".join(parts)


def _marker_line(marker: MarkerDecl) -> str:
    parts = [f"marker {marker.id} at {fmt_float(marker.x)} {fmt_float(marker.y)}"]
    if marker.snap != DEFAULT_SNAP:
        parts.append(f"snap {fmt_float(marker.snap)}")
    if marker.handover:
        parts.append("handover")
    return " ".join(parts)


def _agent_line(agent: AgentDecl) -> str:
    if agent.kind == "arm":
        parts = [f"arm {agent.id} at {fmt_float(agent.x)} {fmt_float(agent.y)} "
                 f"reach {fmt_float(agent.reach)}"]
        if agent.mount is not None:
            parts.append(f"mount {agent.mount} offset {fmt_float(agent.mount_dx)} "
                         f"{fmt_float(agent.mount_dy)}")
        return " ".join(parts)
    return (f"base {agent.id} at {fmt_float(agent.x)} {fmt_float(agent.y)} "
            f"radius {fmt_float(agent.radius)}")


def _action_lines(action: ActionTemplate) -> list[str]:
    out = [f"action {action.name} {action.motion_class.value}"]
    if action.duration:
        out.append(f"  duration {fmt_float(action.duration)}")
    if action.agent is not None:
        out.append(f"  agent {action.agent}")
    if action.area is not None:
        out.append(f"  area {action.area}")
    if action.manipulated is not None:
        out.append(f"  obj {action.manipulated}")
    if action.source is not None:
        out.append(f"  from {action.source}")
    if action.dest is not None:
        out.append(f"  to {action.dest}")
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
    out = []
    for node in sorted(template.nodes, key=lambda n: n.id):
        out.append(f"{indent}node {node.id} {node.kind.value} {_escape(node.label)}")
    for arc in sorted(template.arcs, key=lambda a: a.id):
        line = (f"{indent}arc {arc.id} parent {arc.parent} children "
                + " ".join(str(c) for c in arc.children)
                + f" weight {fmt_weight(arc.weight)}")
        if arc.actions:
            line += " actions " + " ".join(arc.actions)
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
