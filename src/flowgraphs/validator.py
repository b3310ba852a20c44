"""The `.validate` assertion DSL: parser, checker, and generator.

A specification names required links by node label:

    validate example
    // control-flow assertions first, then data-flow assertions
    cfNext : "m()" --> "int a = 1;"
    dfNext : "int a = 1;" --> "return a;"

The grammar:

    spec      := 'validate' ident assertion*
    assertion := ('cfNext' | 'dfNext') ':' label '-->' label

`parse_spec` reads a spec in one scan. Where an assertion may start, one
match reads the whole of it; elsewhere one match reads one token, which
the next rule of `_RULES` checks: the header's two, then an assertion's
five. After the first token that breaks its rule, or a cfNext after a
dfNext, the scan goes on to the end, so that an unexpected character, an
unterminated label or an invalid escape anywhere in the text is the
error that is raised. An error's line and column are worked out from its
offset only when it is raised.

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
from .errors import SourcePosError, line_col
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


# The patterns `parse_spec` reads a spec with. `re` compiles them at their
# first use and then finds them in its cache, so that only a command that
# reads a spec pays for them. Blanks are " \t\r\n"; a comment runs to its
# line end, so that a failed match backtracks over it in one step. A
# label's body takes every character but a quote, a backslash or a line
# end, and the escapes \" and \\.
_SKIP = r"[ \t\r\n]*(?://[^\n]*(?![^\n])[ \t\r\n]*)*"
_BODY = r'([^"\\\n]*(?:\\["\\][^"\\\n]*)*)'
_SPEC_ASSERTION = rf'{_SKIP}(cfNext|dfNext){_SKIP}:{_SKIP}"{_BODY}"{_SKIP}-->{_SKIP}"{_BODY}"'
# One token and the blanks and comments before it, told apart by
# `lastindex`: 1 a label, whose closing quote, group 3, is missing when an
# invalid escape, a line end or the end of text stops it; 4 a symbol; 5 a
# word, \w+, which is exactly the characters `str.isalnum` accepts plus
# "_" (one that does not start with a letter or "_" is an unexpected
# character); 6 any other character. At the end of the text no group matches.
_SPEC_TOKEN = rf'{_SKIP}(?:("{_BODY}(")?)|(-->|:)|(\w+)|(.))?'
_ESCAPE = r"\\(.)"

# Token rules: (kind, what an error calls it, accepted words or () for any);
# the header's two, then an assertion's five, which repeat.
_RULES = (("ident", "'validate'", ("validate",)), ("ident", "a specification name", ()),
          ("ident", "'cfNext' or 'dfNext'", ("cfNext", "dfNext")), (":", "':'", ()),
          ("string", "a quoted label", ()), ("-->", "'-->'", ()), ("string", "a quoted label", ()))
_ASSERTION = 2  # the rule an assertion starts at
_ORDER = "cfNext assertions must precede dfNext assertions"


def parse_spec(text: str) -> ValidationSpec:
    """Parse a `.validate` document.

    Raises ValidateSyntaxError on malformed input and OrderError when a
    cfNext assertion follows a dfNext assertion. An unexpected character,
    an unterminated label or an invalid escape is the error wherever it
    is; otherwise the first token that breaks its rule is, or the end of
    a spec cut short.
    """
    spec = ValidationSpec("")
    links, df_links = spec.cf_links, spec.df_links
    assertion, token = re.compile(_SPEC_ASSERTION).match, re.compile(_SPEC_TOKEN).match
    pos = rule = last = 0  # `last`: the offset of the last token a rule took
    error = None  # the first grammar error, (class, message, offset); the scan goes on
    while True:
        if rule == _ASSERTION and error is None and (m := assertion(text, pos)):
            keyword, left, right = m.groups()
            if keyword == "dfNext":
                links = df_links
            elif links is df_links:
                error = (OrderError, _ORDER, m.start(1))
            if "\\" in left or "\\" in right:
                left, right = re.sub(_ESCAPE, r"\1", left), re.sub(_ESCAPE, r"\1", right)
            links.append(LinkAssertion(left, right))
            pos = m.end()
            continue
        m = token(text, pos)
        group = m.lastindex
        if group is None:
            break
        start, pos = m.start(group), m.end()
        if group == 1 and m[3]:
            kind, value = "string", m[2]
            if "\\" in value:
                value = re.sub(_ESCAPE, r"\1", value)
        elif group == 1:  # no closing quote
            if text.startswith("\\", pos):
                raise ValidateSyntaxError("invalid escape in label", *line_col(text, pos))
            raise ValidateSyntaxError("unterminated label string", *line_col(text, start))
        elif group == 4:
            kind = value = m[4]
        elif group == 5 and (m[5][0].isalpha() or m[5][0] == "_"):
            kind, value = "ident", m[5]
        else:
            raise ValidateSyntaxError(f"unexpected character {text[start]!r}", *line_col(text, start))
        if error:
            continue
        rule_kind, what, words = _RULES[rule]
        if kind != rule_kind or words and value not in words:
            error = (ValidateSyntaxError, f"expected {what}, found {value!r}", start)
        elif rule == 1:  # the spec's name
            spec.name = value
        elif rule == _ASSERTION and value == "dfNext":
            links = df_links
        elif rule == _ASSERTION and links is df_links:
            error = (OrderError, _ORDER, start)
        elif rule == 4:  # an assertion's left label
            left = value
        elif rule == 6:  # and its right label
            links.append(LinkAssertion(left, value))
        last, rule = start, rule + 1 if rule + 1 < len(_RULES) else _ASSERTION
    if error is None and rule != _ASSERTION:
        error = (ValidateSyntaxError, f"expected {_RULES[rule][1]}, found end of input", last)
    if error:
        cls, message, offset = error
        raise cls(message, *line_col(text, offset))
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
