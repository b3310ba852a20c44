"""The `.validate` assertion DSL: parser, checker, and generator.

A specification names required links by node label:

    validate example
    // control-flow assertions first, then data-flow assertions
    cfNext : "m()" --> "int a = 1;"
    dfNext : "int a = 1;" --> "return a;"

The grammar:

    spec      := 'validate' ident assertion*
    assertion := ('cfNext' | 'dfNext') ':' label '-->' label

`parse_spec` reads a valid spec with two patterns, one match for the header
and one per assertion. A spec they do not read to its end is invalid; a
table of token rules (`_HEADER`, then `_KEYWORD` and `_LINK` per assertion)
reads its tokens again and raises at the first one that breaks its rule.

Checking reports two kinds of findings: a *false link* is a graph edge
whose label pair no assertion covers, a *missing link* is an assertion
no connected node pair realizes. Matching is exact string equality on
labels; with duplicated labels an assertion holds if any matching pair
is connected. `FINDINGS` names the report's four lists in output order.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .dataflow import DfEdgeTable
from .errors import SourcePosError
from .model import EdgeTable, FlowGraph


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


# (report list, prefix of its report lines), in the order the lines come
FINDINGS = (("false_cf", "Control false link"), ("false_df", "Data false link"),
            ("missing_cf", "Control missing link"), ("missing_df", "Data missing link"))


class ValidationReport:
    def __init__(self) -> None:
        self.false_cf: list[tuple[str, str]] = []
        self.false_df: list[tuple[str, str]] = []
        self.missing_cf: list[tuple[str, str]] = []
        self.missing_df: list[tuple[str, str]] = []

    @property
    def clean(self) -> bool:
        return not any(getattr(self, name) for name, _ in FINDINGS)

    def lines(self) -> list[str]:
        return [f"{prefix}: {left} ==> {right}"
                for name, prefix in FINDINGS for left, right in getattr(self, name)]


# One match per token, told apart by `lastindex`; a comment has no group.
# A label's body takes every character but a quote, a backslash or a line
# end, and the escapes \" and \\; group 3, the closing quote, is missing
# when an invalid escape, a line end or the end of text stops it. A word is
# \w+, which is exactly the characters `str.isalnum` accepts plus "_"; one
# that does not start with a letter or "_" is an unexpected character. Any
# other character but a blank is caught by group 6, so `finditer` skips
# only blanks. Only an invalid spec reaches the tokenizer, so `re` compiles
# this pattern, as it does `_ESCAPE`, at its first use.
_SPEC_TOKEN = r"""(?x)
      (\n)
    | //[^\n]*
    | "((?:[^"\\\n]|\\["\\])*)(")?
    | (-->|:)
    | (\w+)
    | ([^ \t\r])
    """
_ESCAPE = r"\\(.)"


def _tokenize_spec(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, value, line, col) tuples; kinds: ident, string, ':', '-->'."""
    tokens = []
    line, before_line = 1, -1  # the line number, and the index just before its start
    for m in re.finditer(_SPEC_TOKEN, text):
        group = m.lastindex
        if group == 1:
            line += 1
            before_line = m.start()
            continue
        col = m.start() - before_line
        if group == 3:
            value = m[2]
            if "\\" in value:
                value = re.sub(_ESCAPE, r"\1", value)
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


# Token rules: (kind, what an error calls it, accepted words or () for any)
_HEADER = (("ident", "'validate'", ("validate",)), ("ident", "a specification name", ()))
_KEYWORD = ("ident", "'cfNext' or 'dfNext'", ("cfNext", "dfNext"))
_LABEL = ("string", "a quoted label", ())
_LINK = ((":", "':'", ()), _LABEL, ("-->", "'-->'", ()), _LABEL)  # the rest of an assertion


def _take(tokens: list, i: int, kind: str, what: str, words=()) -> tuple[str, str, int, int]:
    """tokens[i], if it is of `kind` and, when `words` are given, one of them."""
    if i < len(tokens):
        tok = tokens[i]
        if tok[0] == kind and (not words or tok[1] in words):
            return tok
        raise ValidateSyntaxError(f"expected {what}, found {tok[1]!r}", tok[2], tok[3])
    _, _, line, col = tokens[-1] if tokens else ("", "", 1, 1)
    raise ValidateSyntaxError(f"expected {what}, found end of input", line, col)


# The patterns `parse_spec` reads a valid spec with. `re` compiles them at
# their first use and then finds them in its cache, so that only a command
# that reads a spec pays for them. Between tokens they take what
# `_tokenize_spec` skips; a comment runs to its line end, so that a failed
# match backtracks over it in one step.
_SKIP = r"[ \t\r\n]*(?://[^\n]*(?![^\n])[ \t\r\n]*)*"
_QUOTED = r'"([^"\\\n]*(?:\\["\\][^"\\\n]*)*)"'  # a label, its body in a group
_SPEC_HEADER = rf"{_SKIP}validate(?!\w){_SKIP}(\w+){_SKIP}"
_SPEC_ASSERTION = rf"(cfNext|dfNext){_SKIP}:{_SKIP}{_QUOTED}{_SKIP}-->{_SKIP}{_QUOTED}{_SKIP}"


def parse_spec(text: str) -> ValidationSpec:
    """Parse a `.validate` document.

    Raises ValidateSyntaxError on malformed input and OrderError when a
    cfNext assertion follows a dfNext assertion.
    """
    header = re.compile(_SPEC_HEADER).match(text)
    if header and (header[1][0].isalpha() or header[1][0] == "_"):  # as `_tokenize_spec` requires
        spec = ValidationSpec(header[1])
        links, df_links = spec.cf_links, spec.df_links
        pos, end, match = header.end(), len(text), re.compile(_SPEC_ASSERTION).match
        while pos < end and (m := match(text, pos)):
            keyword, left, right = m.groups()
            if keyword == "dfNext":
                links = df_links
            elif links is df_links:
                break
            if "\\" in m[0]:
                left, right = re.sub(_ESCAPE, r"\1", left), re.sub(_ESCAPE, r"\1", right)
            links.append(LinkAssertion(left, right))
            pos = m.end()
        if pos == end:
            return spec
    # Not a valid spec: the token rules find its first error.
    tokens = _tokenize_spec(text)
    _, name = [_take(tokens, i, *rule)[1] for i, rule in enumerate(_HEADER)]
    spec = ValidationSpec(name)
    links = spec.cf_links
    for i in range(len(_HEADER), len(tokens), 1 + len(_LINK)):
        head = _take(tokens, i, *_KEYWORD)
        if head[1] == "dfNext":
            links = spec.df_links
        elif links is spec.df_links:
            raise OrderError("cfNext assertions must precede dfNext assertions", head[2], head[3])
        # fields passed one by one: a call with *rule is not specialized
        _, left, _, right = [_take(tokens, i + j, kind, what, words)[1]
                             for j, (kind, what, words) in enumerate(_LINK, 1)]
        links.append(LinkAssertion(left, right))
    return spec


def check(
    spec: ValidationSpec, graph: FlowGraph, cf: EdgeTable, df: DfEdgeTable
) -> ValidationReport:
    """Compare a specification against computed flow edges.

    False links are reported in graph-edge iteration order, missing links
    in specification order. Never raises; findings go in the report.
    """
    report = ValidationReport()
    nodes = graph.nodes
    for table, asserted, false_out, missing_out in (
        (cf, spec.cf_links, report.false_cf, report.missing_cf),
        (df, spec.df_links, report.false_df, report.missing_df),
    ):
        present = [(nodes[a].txt, nodes[b].txt) for a, b in table.edges()]
        asserted_pairs = set(asserted)  # a LinkAssertion is a (left, right) pair
        false_out.extend(pair for pair in present if pair not in asserted_pairs)
        present_pairs = set(present)
        missing_out.extend(tuple(a) for a in asserted if a not in present_pairs)
    return report


def quote(label: str) -> str:
    """`label` in double quotes, `\\` and `"` escaped: a `.validate` label or a DOT id."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_spec(graph: FlowGraph, cf: EdgeTable, df: DfEdgeTable) -> str:
    """Generate a specification the given graph satisfies with a clean report.

    The specification is named after the method. Duplicate label pairs
    collapse to a single assertion line.
    """
    lines = [f"validate {graph.node(graph.method).txt.removesuffix('()')}"]
    for keyword, table in (("cfNext", cf), ("dfNext", df)):
        pairs = dict.fromkeys((graph.node(a).txt, graph.node(b).txt) for a, b in table.edges())
        lines.extend(f"{keyword} : {quote(left)} --> {quote(right)}" for left, right in pairs)
    return "\n".join(lines) + "\n"
