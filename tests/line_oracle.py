"""The backtracking forms of `dsl`'s line patterns and lexer, as references.

`NODE_LINE` and `ARC_LINE` are the plain graph line shapes with greedy,
backtracking quantifiers; `dsl._NODE_LINE` and `dsl._ARC_LINE` make each
of them possessive and must accept the same lines with the same groups.
`lex_line` reads a line one blank run or token per match, as `dsl` once
did; `dsl._lex_line` reads it one token with its leading blanks per match
and must give the same tokens, or the same `LexError`.
"""

from __future__ import annotations

import re

from taskmotion.dsl import LexError, Token

NODE_LINE = re.compile(
    r'[ \t]*node[ \t]+([0-9]{1,18})[ \t]+(root|failure|leaf|internal)[ \t]+'
    r'("[^"\\]*(?:\\.[^"\\]*)*")[ \t]*(?:#.*)?')
ARC_LINE = re.compile(
    r'[ \t]*arc[ \t]+([0-9]{1,18})[ \t]+parent[ \t]+([0-9]{1,18})[ \t]+children'
    r'((?:[ \t]+[0-9]{1,18})+)[ \t]+weight[ \t]+([0-9]{1,18})'
    r'(?:/([1-9][0-9]{0,17})|\.([0-9]{1,18}))?'
    r'(?:[ \t]+actions((?:[ \t]+[A-Za-z_][A-Za-z0-9_]*)+))?[ \t]*(?:#.*)?')

TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#.*)
  | (?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<badstring>"(?:[^"\\]|\\.)*$)
""", re.VERBOSE)


def lex_line(text: str, line_no: int) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = TOKEN_RE.match(text, pos)
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
