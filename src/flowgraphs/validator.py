"""The `.validate` assertion DSL: parser, checker, and generator.

A specification names required links by node label:

    validate example
    // control-flow assertions first, then data-flow assertions
    cfNext : "m()" --> "int a = 1;"
    dfNext : "int a = 1;" --> "return a;"

Checking reports two kinds of findings: a *false link* is a graph edge
whose label pair no assertion covers, a *missing link* is an assertion
no connected node pair realizes. Matching is exact string equality on
labels; with duplicated labels an assertion holds if any matching pair
is connected.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .controlflow import EdgeTable
from .dataflow import DfEdgeTable
from .errors import SourcePosError
from .model import FlowGraph


class ValidateSyntaxError(SourcePosError):
    pass


class OrderError(ValidateSyntaxError):
    """A cfNext assertion appeared after a dfNext assertion."""


class LinkAssertion(NamedTuple):
    left: str
    right: str


class ValidationSpec:
    def __init__(self, name: str) -> None:
        self.name = name
        self.cf_links: list[LinkAssertion] = []
        self.df_links: list[LinkAssertion] = []


class ValidationReport:
    def __init__(self) -> None:
        self.false_cf: list[tuple[str, str]] = []
        self.false_df: list[tuple[str, str]] = []
        self.missing_cf: list[tuple[str, str]] = []
        self.missing_df: list[tuple[str, str]] = []

    @property
    def clean(self) -> bool:
        return not (self.false_cf or self.false_df or self.missing_cf or self.missing_df)

    def lines(self) -> list[str]:
        out = []
        for left, right in self.false_cf:
            out.append(f"Control false link: {left} ==> {right}")
        for left, right in self.false_df:
            out.append(f"Data false link: {left} ==> {right}")
        for left, right in self.missing_cf:
            out.append(f"Control missing link: {left} ==> {right}")
        for left, right in self.missing_df:
            out.append(f"Data missing link: {left} ==> {right}")
        return out


# One match per token, told apart by `lastindex`; a comment has no group.
# A label's body takes every character but a quote, a backslash or a line
# end, and the escapes \" and \\; group 3, the closing quote, is missing
# when an invalid escape, a line end or the end of text stops it. A word is
# \w+, which is exactly the characters `str.isalnum` accepts plus "_"; one
# that does not start with a letter or "_" is an unexpected character. Any
# other character but a blank is caught by group 6, so `finditer` skips
# only blanks.
_SPEC_TOKEN_RE = re.compile(
    r"""
      (\n)
    | //[^\n]*
    | "((?:[^"\\\n]|\\["\\])*)(")?
    | (-->|:)
    | (\w+)
    | ([^ \t\r])
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")


def _tokenize_spec(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, value, line, col) tuples; kinds: ident, string, ':', '-->'."""
    tokens = []
    line, before_line = 1, -1  # the line number, and the index just before its start
    for m in _SPEC_TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == 1:
            line += 1
            before_line = m.start()
            continue
        col = m.start() - before_line
        if group == 3:
            value = m[2]
            if "\\" in value:
                value = _ESCAPE_RE.sub(r"\1", value)
            tokens.append(("string", value, line, col))
        elif group == 2:  # no closing quote
            if text.startswith("\\", m.end()):
                raise ValidateSyntaxError("invalid escape in label", line, m.end() - before_line)
            raise ValidateSyntaxError("unterminated label string", line, col)
        elif group == 4:
            tokens.append((m[0], m[0], line, col))
        elif group == 5 and (m[0][0].isalpha() or m[0][0] == "_"):
            tokens.append(("ident", m[0], line, col))
        elif group is not None:
            raise ValidateSyntaxError(f"unexpected character {m[0][0]!r}", line, col)
    return tokens


def parse_spec(text: str) -> ValidationSpec:
    """Parse a `.validate` document.

    Raises ValidateSyntaxError on malformed input and OrderError when a
    cfNext assertion follows a dfNext assertion.
    """
    tokens = _tokenize_spec(text)
    pos = 0

    def take(kind: str, what: str) -> tuple[str, str, int, int]:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] != kind:
            if pos < len(tokens):
                _, value, line, col = tokens[pos]
                raise ValidateSyntaxError(f"expected {what}, found {value!r}", line, col)
            last = tokens[-1] if tokens else ("", "", 1, 1)
            raise ValidateSyntaxError(f"expected {what}, found end of input", last[2], last[3])
        tok = tokens[pos]
        pos += 1
        return tok

    kw = take("ident", "'validate'")
    if kw[1] != "validate":
        raise ValidateSyntaxError(f"expected 'validate', found {kw[1]!r}", kw[2], kw[3])
    spec = ValidationSpec(name=take("ident", "a specification name")[1])

    seen_df = False
    while pos < len(tokens):
        head = take("ident", "'cfNext' or 'dfNext'")
        if head[1] not in ("cfNext", "dfNext"):
            raise ValidateSyntaxError(
                f"expected 'cfNext' or 'dfNext', found {head[1]!r}", head[2], head[3]
            )
        if head[1] == "cfNext" and seen_df:
            raise OrderError(
                "cfNext assertions must precede dfNext assertions", head[2], head[3]
            )
        take(":", "':'")
        left = take("string", "a quoted label")[1]
        take("-->", "'-->'")
        right = take("string", "a quoted label")[1]
        if head[1] == "cfNext":
            spec.cf_links.append(LinkAssertion(left, right))
        else:
            seen_df = True
            spec.df_links.append(LinkAssertion(left, right))
    return spec


def check(
    spec: ValidationSpec, graph: FlowGraph, cf: EdgeTable, df: DfEdgeTable
) -> ValidationReport:
    """Compare a specification against computed flow edges.

    False links are reported in graph-edge iteration order, missing links
    in specification order. Never raises; findings go in the report.
    """
    report = ValidationReport()

    def labels(pairs: list[tuple[int, int]]) -> list[tuple[str, str]]:
        return [(graph.node(a).txt, graph.node(b).txt) for a, b in pairs]

    for edge_pairs, asserted, false_out, missing_out in (
        (labels(cf.edges()), spec.cf_links, report.false_cf, report.missing_cf),
        (labels(df.edges()), spec.df_links, report.false_df, report.missing_df),
    ):
        asserted_pairs = {(a.left, a.right) for a in asserted}
        present_pairs = set(edge_pairs)
        for pair in edge_pairs:
            if pair not in asserted_pairs:
                false_out.append(pair)
        for a in asserted:
            if (a.left, a.right) not in present_pairs:
                missing_out.append((a.left, a.right))
    return report


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_spec(graph: FlowGraph, cf: EdgeTable, df: DfEdgeTable, name: str | None = None) -> str:
    """Generate a specification the given graph satisfies with a clean report.

    Duplicate label pairs collapse to a single assertion line.
    """
    if name is None:
        txt = graph.node(graph.method).txt
        name = txt[:-2] if txt.endswith("()") else txt
    lines = [f"validate {name}"]
    for keyword, table in (("cfNext", cf), ("dfNext", df)):
        seen: set[tuple[str, str]] = set()
        for a, b in table.edges():
            pair = (graph.node(a).txt, graph.node(b).txt)
            if pair in seen:
                continue
            seen.add(pair)
            lines.append(f"{keyword} : {_quote(pair[0])} --> {_quote(pair[1])}")
    return "\n".join(lines) + "\n"
