"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import json
import time
from contextlib import contextmanager

from flowgraphs.minijava import parse_program
from flowgraphs.model import NodeKind, flow_instructions
from flowgraphs.pipeline import analyze
from flowgraphs.validator import check, emit_spec, parse_spec

import progen
from helpers import CORPUS, first_statement, golden, run_cli
from oracle import brute_force_df_edges


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def reachable(analysis):
    seen = {analysis.graph.method}
    frontier = [analysis.graph.method]
    while frontier:
        nid = frontier.pop()
        for nxt in analysis.cf.cf_next.get(nid, []):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_criterion_1_golden_corpus():
    with criterion(1, "golden corpus control-flow output"):
        assert len(CORPUS) >= 8
        start = time.perf_counter()
        for path in CORPUS:
            code, out, err = run_cli(["cfg", str(path)])
            assert code == 0, err
            assert out == golden(path.stem + ".cfg.txt"), path.name
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"corpus run took {elapsed:.3f}s"

        # the corpus collectively exercises every control-flow rule
        text = "\n".join(p.read_text() for p in CORPUS)
        for construct in ("{\n", "while", "if", "else", "return", "break",
                          "continue", "break outer", "continue outer", "++"):
            assert construct in text, f"corpus misses {construct!r}"


def test_criterion_2_structural_properties():
    with criterion(2, "structural properties on 200 random programs"):
        violations = 0
        checked = 0
        seed = 0
        while checked < 200:
            source = progen.gen_program(seed, strict=True, max_stmts=40)
            seed += 1
            if progen.count_statements(parse_program(source)[0]) > 50:
                continue
            a = analyze(source)
            checked += 1
            graph = a.graph

            forward = {(s, d) for s, d in a.cf.edges()}
            backward = {(s, d) for d, ss in a.cf.cf_prev.items() for s in ss}
            if forward != backward:
                violations += 1

            live = reachable(a)
            by_expr = {}
            for node in graph.nodes:
                if node.kind in (NodeKind.LOOP, NodeKind.IF):
                    by_expr[node.expr] = node
            for nid in flow_instructions(graph):
                degree = len(a.cf.cf_next.get(nid, []))
                kind = graph.node(nid).kind
                if kind is NodeKind.EXIT:
                    if degree != 0:
                        violations += 1
                elif kind is NodeKind.EXPR:
                    owner = by_expr[nid]
                    has_two = owner.kind is NodeKind.LOOP or owner.orelse is not None
                    if has_two and degree != 2:
                        violations += 1
                    if not has_two and nid in live and degree != 1:
                        violations += 1
                elif nid in live and degree != 1:
                    violations += 1
        assert violations == 0


def test_criterion_3_dataflow_oracle_equivalence():
    with criterion(3, "data-flow equals brute-force oracle"):
        programs = [p.read_text() for p in CORPUS]
        seed = 10_000
        while len(programs) < len(CORPUS) + 200:
            source = progen.gen_program(seed, strict=False, max_stmts=25, max_instrs=22)
            seed += 1
            if len(flow_instructions(analyze(source).graph)) <= 25:
                programs.append(source)
        for source in programs:
            a = analyze(source)
            assert len(flow_instructions(a.graph)) <= 25
            got = set(a.df.edges())
            want = brute_force_df_edges(a.graph, a.cf, a.def_use)
            assert got == want, source


def test_criterion_4_unary_expression_regression():
    with criterion(4, "unary expression data-flow links"):
        a = analyze("int m() { int i = 0; while (i < 10) { i++; } return i; }")
        labels = {
            (a.graph.node(s).txt, a.graph.node(d).txt) for s, d in a.df.edges()
        }
        assert ("i++;", "i++;") in labels, "self edge missing"
        assert ("i++;", "i < 10") in labels, "back-edge-reaching definition missing"


def test_criterion_5_validation_roundtrip(tmp_path):
    with criterion(5, "validation round-trip and single-finding reports"):
        for path in CORPUS:
            a = analyze(path.read_text())
            assert check(parse_spec(emit_spec(a.graph, a.cf, a.df)),
                         a.graph, a.cf, a.df).clean

            code, emitted, _ = run_cli(["validate", str(path), "--emit"])
            assert code == 0
            spec_file = tmp_path / (path.stem + ".validate")
            spec_file.write_text(emitted)
            code, out, _ = run_cli(["validate", str(path), "--spec", str(spec_file)])
            assert code == 0 and out == ""

            lines = emitted.splitlines()
            header, assertions = lines[0], lines[1:]
            # distinct label pairs per assertion make single-finding checks exact
            assert len(assertions) == len(set(assertions))

            # deleting any single assertion leaves exactly one uncovered
            # graph edge, which reports as one false link
            for i in range(len(assertions)):
                trimmed = "\n".join([header] + assertions[:i] + assertions[i + 1:]) + "\n"
                spec_file.write_text(trimmed)
                code, out, _ = run_cli(["validate", str(path), "--spec", str(spec_file)])
                assert code == 1
                found = out.splitlines()
                assert len(found) == 1
                assert "false link:" in found[0]

            # adding any single bogus assertion: exactly one missing-link line
            for bogus, where in (
                ('cfNext : "bogus left" --> "bogus right"', 1),
                ('dfNext : "bogus left" --> "bogus right"', len(lines)),
            ):
                augmented = lines[:where] + [bogus] + lines[where:]
                spec_file.write_text("\n".join(augmented) + "\n")
                code, out, _ = run_cli(["validate", str(path), "--spec", str(spec_file)])
                assert code == 1
                found = out.splitlines()
                assert len(found) == 1
                assert "missing link:" in found[0]


def test_criterion_6_text_attribution_rules():
    with criterion(6, "text attribution unit coverage"):
        def stmt(src, *path):
            return first_statement(f"int m(int a, int b, int c) {{ {src} }}", *path)[2]

        # One assertion per rule; simple statements and conditions are
        # written unspaced, so that each label shows the canonical spacing.
        assert parse_program("int f() { return; }")[0].node(0).txt == "f()"
        assert stmt("int x=1;").txt == "int x = 1;"
        assert stmt("a=b;").txt == "a = b;"
        assert stmt("a++;").txt == "a++;"
        assert stmt("a--;").txt == "a--;"
        assert stmt("a*b/c;").txt == "a * b / c;"
        assert stmt("a+b-c;").txt == "a + b - c;"
        assert stmt("while (a<b) a++;", "expr").txt == "a < b"
        assert stmt("while (a>b) a++;", "expr").txt == "a > b"
        assert stmt("if (a==b) a++;", "expr").txt == "a == b"
        assert stmt("a;").txt == "a;"
        assert stmt("12;").txt == "12;"
        assert stmt("while (a < 1) a++;").txt == "while"
        assert stmt("if (a < 1) a++;").txt == "if"
        assert stmt("{ a++; }").txt == "{...}"
        assert stmt("while (a < 1) continue;", "body").txt == "continue"
        assert stmt("while (a < 1) break;", "body").txt == "break"
        assert stmt("return;").txt == "return;"
        assert stmt("return a;").txt == "return a;"
        assert stmt("lbl: a++;").txt == "lbl:"
        assert analyze("int m() {}").graph.node(1).txt == "Exit"
        assert stmt("int y = 2;").txt.startswith("int ")  # type rule
        assert [stmt(src).txt for src in (
            "a=b;", "a*b;", "a+b;", "a/b;", "a-b;", "a==b;", "a>b;", "a<b;", "a++;", "a--;",
        )] == ["a = b;", "a * b;", "a + b;", "a / b;", "a - b;", "a == b;", "a > b;", "a < b;",
               "a++;", "a--;"]


def test_criterion_7_scale_smoke(tmp_path):
    with criterion(7, "10k-statement program under 10s"):
        source = progen.gen_scale(seed=7, n_stmts=10_000)
        assert progen.count_statements(parse_program(source)[0]) >= 10_000
        program = tmp_path / "big.mj"
        program.write_text(source)
        start = time.perf_counter()
        code, out, err = run_cli(["dfg", str(program), "--json"])
        elapsed = time.perf_counter() - start
        assert code == 0, err
        doc = json.loads(out)
        assert doc["dfNext"]
        assert elapsed < 10.0, f"dfg --json took {elapsed:.2f}s"
