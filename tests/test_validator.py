import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowgraphs import validator
from flowgraphs.pipeline import analyze
from flowgraphs.validator import (
    LinkAssertion,
    OrderError,
    ValidateSyntaxError,
    check,
    emit_spec,
    parse_spec,
)

import ref_spec
import ref_walks
from helpers import CORPUS, random_sources


def check_source(source: str, spec_text: str):
    a = analyze(source)
    return check(parse_spec(spec_text), a.graph, a.cf, a.df)


def test_parse_single_cf_assertion():
    spec = parse_spec('validate t0\ncfNext : "m()" --> "return;"')
    assert spec.name == "t0"
    assert spec.cf_links == [LinkAssertion("m()", "return;")]
    assert spec.df_links == []


def test_parse_empty_spec():
    spec = parse_spec("validate empty")
    assert spec.name == "empty"
    assert spec.cf_links == [] and spec.df_links == []


def test_cf_after_df_is_an_order_error():
    with pytest.raises(OrderError):
        parse_spec('validate x\ndfNext : "a" --> "b"\ncfNext : "c" --> "d"')


def test_whitespace_and_comments_are_free_form():
    spec = parse_spec(
        '// header\nvalidate t  \n  cfNext:"a"-->"b" // tail\n'
        'cfNext\n : "c" \n --> "d"\ndfNext : "e" --> "f"'
    )
    assert spec.cf_links == [LinkAssertion("a", "b"), LinkAssertion("c", "d")]
    assert spec.df_links == [LinkAssertion("e", "f")]


def test_string_escapes():
    spec = parse_spec(r'validate t' '\n' r'cfNext : "a \"q\" \\ b" --> "c"')
    assert spec.cf_links[0].left == 'a "q" \\ b'


def test_syntax_errors_carry_positions():
    with pytest.raises(ValidateSyntaxError) as exc_info:
        parse_spec('validate t\ncfNext "a" --> "b"')
    assert exc_info.value.line == 2
    with pytest.raises(ValidateSyntaxError):
        parse_spec('validate t\ncfNext : "a" -> "b"')
    with pytest.raises(ValidateSyntaxError):
        parse_spec('validate t\ncfNext : "unterminated --> "b"')
    with pytest.raises(ValidateSyntaxError):
        parse_spec('check t')
    with pytest.raises(ValidateSyntaxError):
        parse_spec('validate t\ncfNext : "a \\n b" --> "c"')


def test_clean_spec_is_a_fixed_point():
    report = check_source(
        "int m() { int a = 1; return a; }",
        'validate t\n'
        'cfNext : "m()" --> "int a = 1;"\n'
        'cfNext : "int a = 1;" --> "return a;"\n'
        'cfNext : "return a;" --> "Exit"\n'
        'dfNext : "int a = 1;" --> "return a;"',
    )
    assert report.clean
    assert report.lines() == []


def test_extra_assertion_is_missing():
    report = check_source(
        "int m() { return; }",
        'validate t\ncfNext : "m()" --> "return;"\ncfNext : "return;" --> "Exit"\n'
        'cfNext : "a" --> "b"',
    )
    assert report.missing_cf == [("a", "b")]
    assert report.false_cf == [] and report.false_df == [] and report.missing_df == []


def test_uncovered_edge_is_false():
    report = check_source(
        "int m() { return; }",
        'validate t\ncfNext : "m()" --> "return;"',
    )
    assert report.false_cf == [("return;", "Exit")]
    assert report.missing_cf == []


def test_df_findings_are_reported_as_data():
    report = check_source(
        "int m() { int a = 1; return a; }",
        'validate t\n'
        'cfNext : "m()" --> "int a = 1;"\n'
        'cfNext : "int a = 1;" --> "return a;"\n'
        'cfNext : "return a;" --> "Exit"\n'
        'dfNext : "nope" --> "nada"',
    )
    assert report.false_df == [("int a = 1;", "return a;")]
    assert report.missing_df == [("nope", "nada")]
    assert report.lines() == [
        "Data false link: int a = 1; ==> return a;",
        "Data missing link: nope ==> nada",
    ]


def test_report_line_format():
    report = check_source("int m() { return; }", "validate t")
    assert report.lines() == [
        "Control false link: m() ==> return;",
        "Control false link: return; ==> Exit",
    ]


def test_ambiguous_labels_match_existentially():
    # two distinct statements share the label "a++;"; assertions about the
    # label hold if any matching pair is connected
    source = "int m(int a) { if (a < 1) { a++; } else { a++; } return a; }"
    a = analyze(source)
    spec = parse_spec(emit_spec(a.graph, a.cf, a.df))
    lefts = [link.left for link in spec.cf_links]
    assert lefts.count("a++;") == 1  # deduplicated once per label pair
    assert check(spec, a.graph, a.cf, a.df).clean


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_emit_roundtrip_on_corpus(path):
    a = analyze(path.read_text())
    spec = parse_spec(emit_spec(a.graph, a.cf, a.df))
    assert check(spec, a.graph, a.cf, a.df).clean


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_removing_one_assertion_makes_exactly_one_false_link(path):
    a = analyze(path.read_text())
    spec = parse_spec(emit_spec(a.graph, a.cf, a.df))
    for i in range(len(spec.cf_links)):
        trimmed = parse_spec(emit_spec(a.graph, a.cf, a.df))
        removed = trimmed.cf_links.pop(i)
        report = check(trimmed, a.graph, a.cf, a.df)
        assert report.false_cf == [(removed.left, removed.right)]
        assert not report.missing_cf and not report.false_df and not report.missing_df


def test_emit_on_empty_edges():
    a = analyze("int m() {}")
    text = emit_spec(a.graph, a.cf, a.df)
    assert text.splitlines()[0] == "validate m"
    # the only edge is m() --> Exit
    assert text.splitlines()[1:] == ['cfNext : "m()" --> "Exit"']


def test_emit_quotes_and_names():
    a = analyze("int count() { int a = 1; return a; }")
    text = emit_spec(a.graph, a.cf, a.df)
    assert text.startswith("validate count\n")
    assert 'cfNext : "count()" --> "int a = 1;"' in text


# ---- the one-scan parser against tests/ref_spec.py::parse_spec ----

SPEC_PIECES = ("validate", "cfNext", "dfNext", " ", "\t", "\r", "\n", ":", "-->", "->", "-",
               ">", '"', "\\", '\\"', "\\\\", "\\n", "//", "/", "a", "_x1", "1", "2b", "\u00b2",
               "a\u00b2", "\u00df", "\u00e9", "\u0661", "\u2167", "\x0b", "\xa0", '"int a = 1;"',
               '"a \\"b\\" \\\\"', '"m()"', "\U0001f600")
spec_text = st.lists(st.sampled_from(SPEC_PIECES), max_size=30).map("".join)


# Whole assertions, so that parses get past the header and reach the order
# check: sorted, the cfNext ones come first. Up to two pieces go between
# them, so that a grammar error may come before more whole assertions, and
# one may follow them.
spec_assertion = st.builds("{} : {} --> {}".format, st.sampled_from(("cfNext", "dfNext")),
                           st.sampled_from(('"a"', '"int a = 1;"', '"a \\"b\\" \\\\"', '"m()"')),
                           st.sampled_from(('"Exit"', '"return a;"', '""')))


def spec_lines(header, links, ordered, inserts, tail):
    lines = sorted(links) if ordered else list(links)
    for at, piece in inserts:
        lines.insert(at % (len(lines) + 1), piece)
    return header + "\n".join(lines) + tail


spec_document = st.builds(
    spec_lines,
    st.sampled_from(("validate t\n",) * 4 + ("validate t ", "validate\n", "validate 1\n", "")),
    st.lists(spec_assertion, max_size=8), st.booleans(),
    st.lists(st.tuples(st.integers(0, 8), st.sampled_from(SPEC_PIECES)), max_size=2),
    st.sampled_from(("",) * len(SPEC_PIECES) + SPEC_PIECES),
)


def parse_outcome(parse, text):
    try:
        spec = parse(text)
    except ValidateSyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return spec.name, spec.cf_links, spec.df_links


@settings(max_examples=800, deadline=None, derandomize=True)
@given(st.one_of(spec_document, spec_text, st.text()))
@example("")
@example("validate")
@example("cfNext x")
@example('validate t\ndfNext : "a" --> "b"\ncfNext : "c" --> "d"')
@example('validate t\ndfNext : "a" --> "b"\ncfNext ???')
@example('validate t\ncfNext : "a" -->')
@example("\r\n// c\r\n".join(("validate", "t", "cfNext", ":", '"a"', "-->", '"b"', "dfNext", ":",
                                 '"c"', "-->", '"d"', "")))
@example('validate t\ncfNext : "a\\"b\\\\" --> "\\\\c\\""\ndfNext:"\\\\"-->"\\""')
@example('validate \u00e91\ncfNext : "a" --> "b"')
@example('validate \u00b2a\ncfNext : "a" --> "b"')
@example('validate t\ncfNext : "a" --> "b"\ndfNext : "c" --> "d"\ncfNext : "e" --> "f"')
@example('validate t\ncfNextx : "a" --> "b"')
@example('validate t\ncfNext : "a" --> "b" // no newline after me')
@example('validate t\ncfNext : "a\\"b" --> "c\\\\"\r\n// done')
@example('x "abc\\')
@example('x "ab\\\ncd"')
@example('x "abc\n"')
@example("\u00b2a")
@example("a\u00b2\u00bd \u00bd")
@example("x --- y")
@example('validate t\ncfNext "a" --> "b"\ncfNext : "c" --> "d" $')  # the character error wins
@example('validate t\ndfNext : "a" --> "b"\ncfNext : "c" --> "d" "e')  # over an order error too
def test_parse_spec_matches_reference(text):
    assert parse_outcome(parse_spec, text) == parse_outcome(ref_spec.parse_spec, text)


def test_valid_specs_never_reach_line_col(monkeypatch):
    # A position is worked out only to word an error; a valid spec has none.
    specs = []
    for source in [path.read_text() for path in CORPUS] + list(random_sources()[:200]):
        a = analyze(source)
        specs.append(emit_spec(a.graph, a.cf, a.df))
    expected = [parse_outcome(ref_spec.parse_spec, text) for text in specs]

    def refuse(text, offset):
        raise AssertionError(f"a valid spec asked for the position of offset {offset}:\n{text}")

    monkeypatch.setattr(validator, "line_col", refuse)
    assert [parse_outcome(parse_spec, text) for text in specs] == expected
    assert all(isinstance(name, str) for name, *_ in expected)  # every one parsed


@pytest.mark.parametrize("head, tail, message", [
    ("", "", None),
    ("", 'cfNext : "a" "b"\n', "50002:14: expected '-->', found 'b'"),
    ("", 'dfNext : "a" --> "b"\ncfNext : "c" --> "d"\n',
     "50003:1: cfNext assertions must precede dfNext assertions"),
    ("cfNext :\n", "$", "50003:1: unexpected character '$'"),
], ids=["valid", "missing-arrow", "order", "character-after-grammar-error"])
def test_many_assertions_take_linear_time(head, tail, message):
    # One match per assertion, and one per token after a broken rule, which
    # the scan reads on to find any character error; a pattern that scans
    # the text again from each assertion takes minutes at this size.
    text = ("validate t\n" + head + 'cfNext : "int a = 1;" --> "return a;" // ok\n' * 50_000
            + tail)
    start = time.perf_counter()
    try:
        outcome = len(parse_spec(text).cf_links)
    except ValidateSyntaxError as exc:
        outcome = str(exc)
    assert time.perf_counter() - start < 1.0
    assert outcome == (message or 50_000)


def test_import_compiles_no_spec_pattern():
    # Every `fg` command imports the validator, and most read no spec; `re`
    # compiles each pattern where it is first used, and caches it.
    assert [name for name, value in vars(validator).items() if isinstance(value, re.Pattern)] == []
