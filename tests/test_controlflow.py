import pytest

from flowgraphs.minijava import MissingEnclosingLoopError
from flowgraphs.model import NodeKind, flow_instructions
from flowgraphs.pipeline import analyze

import progen
import ref_walks
from helpers import CORPUS


def by_txt(graph, txt):
    matches = [n.id for n in graph.nodes if n.txt == txt]
    assert len(matches) == 1, f"label {txt!r} is not unique: {matches}"
    return matches[0]


def edge_labels(analysis):
    graph = analysis.graph
    return [(graph.node(a).txt, graph.node(b).txt) for a, b in analysis.cf.edges()]


def next_labels(analysis, txt):
    return [analysis.graph.node(t).txt for t in analysis.cf.cf_next[by_txt(analysis.graph, txt)]]


def test_successors_of_method_statements():
    a = analyze("int m(int x) { x = 1; x = 2; }")
    assert next_labels(a, "x = 1;") == ["x = 2;"]
    assert next_labels(a, "x = 2;") == ["Exit"]


def test_successors_single_statement():
    a = analyze("int m(int x) { x = 1; }")
    assert next_labels(a, "x = 1;") == ["Exit"]


def test_loop_body_successor_is_condition():
    a = analyze("int m(int x) { while (x < 3) { x = 1; x = 2; } }")
    assert next_labels(a, "x = 1;") == ["x = 2;"]
    assert next_labels(a, "x = 2;") == ["x < 3"]


def test_if_branches_inherit_if_successors():
    a = analyze("int m(int x) { if (x < 3) x = 1; else x = 2; return x; }")
    assert next_labels(a, "x < 3") == ["x = 1;", "x = 2;"]
    assert next_labels(a, "x = 1;") == ["return x;"]
    assert next_labels(a, "x = 2;") == ["return x;"]


def test_label_passes_successors_through():
    a = analyze("int m(int x) { foo: while (x < 3) x = 1; return x; }")
    assert next_labels(a, "x < 3") == ["return x;", "x = 1;"]


def test_cf_next_of_nested_blocks():
    a = analyze("int m(int x) { { { x = 1; } } }")
    assert next_labels(a, "m()") == ["x = 1;"]


def test_cf_next_of_loop_and_condition():
    a = analyze("int m(int x) { while (x < 3) x = 1; }")
    assert next_labels(a, "m()") == ["x < 3"]
    assert next_labels(a, "x = 1;") == ["x < 3"]


def test_cf_next_of_label_wrapping_loop():
    a = analyze("int m(int x) { x = 0; foo: while (x < 3) x = 1; }")
    assert next_labels(a, "x = 0;") == ["x < 3"]


def test_straight_line_edges():
    a = analyze("int m() { int a = 1; return a; }")
    assert edge_labels(a) == [
        ("m()", "int a = 1;"),
        ("int a = 1;", "return a;"),
        ("return a;", "Exit"),
    ]


def test_while_edge_order_continuation_then_body():
    a = analyze("int m(int a) { while (a < 3) a++; }")
    cond = by_txt(a.graph, "a < 3")
    targets = [a.graph.node(t).txt for t in a.cf.cf_next[cond]]
    assert targets == ["Exit", "a++;"]


def test_if_edge_order_then_before_continuation():
    a = analyze("int m(int a) { if (a < 3) a++; return a; }")
    cond = by_txt(a.graph, "a < 3")
    targets = [a.graph.node(t).txt for t in a.cf.cf_next[cond]]
    assert targets == ["a++;", "return a;"]


def test_break_bypasses_rest_of_loop():
    a = analyze("int m(int a) { while (a < 3) { if (a == 1) break; a++; } }")
    brk = by_txt(a.graph, "break")
    targets = [a.graph.node(t).txt for t in a.cf.cf_next[brk]]
    assert targets == ["Exit"]


def test_continue_jumps_to_condition():
    a = analyze("int m(int a) { while (a < 3) { continue; } }")
    cont = by_txt(a.graph, "continue")
    assert a.cf.cf_next[cont] == [by_txt(a.graph, "a < 3")]


def test_labeled_break_uses_label_successors():
    a = analyze(
        "int m(int a) {"
        " outer: while (a < 9) { while (a < 3) { break outer; } }"
        " return a; }"
    )
    brk = by_txt(a.graph, "break")
    assert [a.graph.node(t).txt for t in a.cf.cf_next[brk]] == ["return a;"]


def test_labeled_continue_targets_labeled_loop_condition():
    a = analyze(
        "int m(int a) {"
        " outer: while (a < 9) { while (a < 3) { continue outer; } }"
        " return a; }"
    )
    cont = by_txt(a.graph, "continue")
    assert [a.graph.node(t).txt for t in a.cf.cf_next[cont]] == ["a < 9"]


def test_break_to_label_on_block():
    # Fig-9 semantics: the jump goes to the label's successors, loop or not.
    a = analyze("int m(int a) { foo: { break foo; a++; } return a; }")
    brk = by_txt(a.graph, "break")
    assert [a.graph.node(t).txt for t in a.cf.cf_next[brk]] == ["return a;"]


def test_empty_method_links_to_exit():
    a = analyze("int m() {}")
    assert edge_labels(a) == [("m()", "Exit")]


def test_empty_block_falls_through():
    a = analyze("int m(int a) { {} a++; }")
    assert ("m()", "a++;") in edge_labels(a)


def test_empty_loop_body_makes_condition_self_loop():
    a = analyze("int m(int a) { while (a < 3) {} }")
    cond = by_txt(a.graph, "a < 3")
    targets = [a.graph.node(t).txt for t in a.cf.cf_next[cond]]
    assert targets == ["Exit", "a < 3"]


@pytest.mark.parametrize("source, expected", [
    # Unlabeled jumps inside a labeled block skip the label's target.
    (
        "int m(int a) { while (a < 9) { L: { if (a == 1) continue; if (a == 2) break; a++; } }"
        " return a; }",
        [("m()", "a < 9"), ("a < 9", "return a;"), ("a < 9", "a == 1"),
         ("a == 1", "continue"), ("a == 1", "a == 2"), ("continue", "a < 9"),
         ("a == 2", "break"), ("a == 2", "a++;"), ("break", "return a;"),
         ("a++;", "a < 9"), ("return a;", "Exit")],
    ),
    # break out of a labeled if.
    (
        "int m(int a) { L: if (a < 3) { break L; a++; } return a; }",
        [("m()", "a < 3"), ("a < 3", "break"), ("a < 3", "return a;"),
         ("break", "return a;"), ("a++;", "return a;"), ("return a;", "Exit")],
    ),
    # An unlabeled break under a labeled outer loop leaves the inner loop only.
    (
        "int m(int a) { outer: while (a < 9) { while (a < 3) { break; } a++; } return a; }",
        [("m()", "a < 9"), ("a < 9", "return a;"), ("a < 9", "a < 3"),
         ("a < 3", "a++;"), ("a < 3", "break"), ("break", "a++;"),
         ("a++;", "a < 9"), ("return a;", "Exit")],
    ),
    # The then-entry equals the continuation: one edge, not two.
    (
        "int m(int a) { if (a < 3) {} return a; }",
        [("m()", "a < 3"), ("a < 3", "return a;"), ("return a;", "Exit")],
    ),
], ids=["unlabeled-in-labeled-block", "break-labeled-if", "inner-break", "empty-then"])
def test_jump_stack_shapes(source, expected):
    assert edge_labels(analyze(source)) == expected


@pytest.mark.parametrize("source, line, column, message", [
    ("int m() {\n  break;\n}", 2, 3, "'break' has no enclosing loop"),
    ("int m() { continue; }", 1, 11, "'continue' has no enclosing loop"),
    ("int m(int a) { foo: { continue foo; } }", 1, 23, "label 'foo' does not name a loop"),
    ("int m(int a) { L: { break; } }", 1, 21, "'break' has no enclosing loop"),
    ("int m(int a) { while (a < 3) { L: { continue L; } } }", 1, 37,
     "label 'L' does not name a loop"),
    # Two bad jumps: the first in the source is reported.
    ("int m() { break;\n continue; }", 1, 11, "'break' has no enclosing loop"),
], ids=["break-line-2", "continue", "continue-label-on-block", "break-in-labeled-block",
        "continue-label-in-loop", "first-of-two"])
def test_jump_errors_are_positioned(source, line, column, message):
    with pytest.raises(MissingEnclosingLoopError) as info:
        analyze(source)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"{line}:{column}: {message}"


def test_missing_enclosing_loop():
    with pytest.raises(MissingEnclosingLoopError):
        analyze("int m() { break; }")
    with pytest.raises(MissingEnclosingLoopError):
        analyze("int m() { continue; }")


def test_labeled_continue_requires_loop_label():
    with pytest.raises(MissingEnclosingLoopError):
        analyze("int m(int a) { foo: { continue foo; } }")


def test_dead_code_still_gets_edges_but_is_unreachable():
    a = analyze("int m(int a) { return; a++; }")
    dead = by_txt(a.graph, "a++;")
    assert a.cf.cf_next[dead] == [a.graph.exit]

    reached = {a.graph.method}
    frontier = [a.graph.method]
    while frontier:
        nid = frontier.pop()
        for nxt in a.cf.cf_next.get(nid, []):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    assert dead not in reached


def test_flow_instruction_classification():
    a = analyze("int m(int a) { while (a < 3) { a++; } }")
    graph = a.graph
    instrs = set(flow_instructions(graph))
    for node in graph.nodes:
        if node.kind in (NodeKind.BLOCK, NodeKind.LOOP, NodeKind.IF,
                         NodeKind.LABEL, NodeKind.VAR, NodeKind.PARAM):
            assert node.id not in instrs
        else:
            assert node.id in instrs


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_prev_is_exact_inverse_on_corpus(path):
    a = analyze(path.read_text())
    forward = {(s, d) for s, d in a.cf.edges()}
    backward = {(s, d) for d, srcs in a.cf.cf_prev.items() for s in srcs}
    assert forward == backward
    for targets in a.cf.cf_next.values():
        assert len(targets) == len(set(targets))
    assert a.graph.exit not in a.cf.cf_next


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_has_no_unreachable_instructions(path):
    a = analyze(path.read_text())
    reached = {a.graph.method}
    frontier = [a.graph.method]
    while frontier:
        nid = frontier.pop()
        for nxt in a.cf.cf_next.get(nid, []):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    assert reached == set(flow_instructions(a.graph))


@pytest.mark.parametrize("seed", range(25))
def test_determinism(seed):
    source = progen.gen_program(seed + 300, strict=False, max_stmts=35)
    first = analyze(source)
    second = analyze(source)
    assert first.cf.cf_next == second.cf.cf_next
    assert first.cf.cf_prev == second.cf.cf_prev
    assert first.df.df_next == second.df.df_next


def test_attribute_recomputation_is_stable():
    a = analyze("int m(int a) { while (a < 3) { a++; } return a; }")
    edges = ref_walks.compute_cf_edges(a.graph)
    assert edges.cf_next == a.cf.cf_next
    assert edges.cf_prev == a.cf.cf_prev
