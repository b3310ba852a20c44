import gc
import importlib
import itertools
import pkgutil
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowgraphs
from flowgraphs import minijava as mj
from flowgraphs.errors import FlowgraphsError
from flowgraphs.minijava import (
    ParseError,
    UnresolvedLabelError,
    UnresolvedVariableError,
    parse_program,
)
from flowgraphs.model import EXIT_TEXT, NodeKind
from flowgraphs.pipeline import Analysis, analyze

import progen
import ref_parser
import ref_walks
from helpers import (
    CORPUS,
    assert_labels_need_no_escape,
    assert_matches_reference,
    first_statement,
    graph_of,
    images,
    random_sources,
)


def test_minimal_program():
    graph, _, du = parse_program("int m() { return; }")
    root = graph.node(graph.method)
    assert (root.kind, root.txt, root.exit, root.vars) == (NodeKind.METHOD, "m()", 1, [])
    assert len(root.stmts) == 1
    ret = graph.node(root.stmts[0])
    assert ret.kind is NodeKind.RETURN and ret.txt == "return;"
    assert du.defs == du.uses == {}


def test_while_with_suffix_unary():
    source = "int m(int a) { while (a < 3) a++; }"
    graph, du, loop = first_statement(source)
    (a,) = graph.node(graph.method).vars
    assert loop.kind is NodeKind.LOOP
    cond = graph.node(loop.expr)
    assert (cond.kind, cond.txt, du.use_of(cond.id), du.def_of(cond.id)) == (
        NodeKind.EXPR, "a < 3", [a], [])
    body = graph.node(loop.body)
    assert (body.kind, body.txt, du.use_of(body.id), du.def_of(body.id)) == (
        NodeKind.SIMPLE, "a++;", [a], [a])
    cond = ref_parser.parse_program(source).body[0].cond
    assert isinstance(cond, ref_parser.Chain)
    assert cond.kind is ref_parser.ChainKind.RELATIONAL
    assert cond.operators == [ref_parser.Op.LT]
    assert isinstance(cond.children[0], ref_parser.IdentRef) and cond.children[0].name == "a"
    assert isinstance(cond.children[1], ref_parser.IntLit) and cond.children[1].value == 3
    assert_matches_reference(source)


def test_unresolved_label():
    with pytest.raises(UnresolvedLabelError):
        parse_program("int m() { break foo; }")


def test_label_not_in_scope_after_labeled_stmt():
    with pytest.raises(UnresolvedLabelError):
        parse_program("int m(int a) { foo: a++; break foo; }")


def test_labeled_jump_resolves():
    parse_program("int m(int a) { foo: while (a < 1) { break foo; } }")
    parse_program("int m(int a) { foo: while (a < 1) { continue foo; } }")


def test_undeclared_variable():
    with pytest.raises(UnresolvedVariableError):
        parse_program("int m() { x = 1; }")


def test_declaration_not_visible_in_own_initializer():
    with pytest.raises(UnresolvedVariableError):
        parse_program("int m() { int x = x; }")


def test_declaration_scoped_to_block():
    with pytest.raises(UnresolvedVariableError):
        parse_program("int m() { { int x = 1; } x++; }")


def test_declaration_in_branch_scoped_to_branch():
    # Arbitrary statements are allowed as branches; the declared name
    # does not leak.
    parse_program("int m(int c) { if (c < 1) int x = 1; }")
    for source in (
        "int m(int c) { if (c < 1) int x = 1; x++; }",
        "int m(int c) { if (c < 1) c++; else int x = 1; x++; }",
        # nor into the else branch, nor into an `else if` arm or its condition
        "int m(int c) { if (c < 1) int x = 1; else x++; }",
        "int m(int c) { if (c < 1) int x = 1; else if (x < 1) c++; }",
        "int m(int c) { if (c < 1) c++; else if (c < 2) int x = 1; else x++; }",
        "int m(int c) { if (c < 1) c++; else if (c < 2) int x = 1; x++; }",
        "int m(int c) { while (c < 1) int x = 1; x++; }",
    ):
        with pytest.raises(UnresolvedVariableError):
            parse_program(source)


def test_shadowing_binds_innermost():
    graph, _, du = parse_program("int m(int a) { { int a = a + 1; a++; } a--; }")
    root = graph.node(graph.method)
    param, local = root.vars
    block, outer_use = root.stmts  # {...}, a--
    inner_decl, inner_use = graph.node(block).stmts  # int a = a + 1;, a++
    # the initializer's `a` refers to the parameter, not the new local
    assert (du.use_of(inner_decl), du.def_of(inner_decl)) == ([param], [local])
    assert du.use_of(inner_use) == du.def_of(inner_use) == [local]
    assert du.use_of(outer_use) == du.def_of(outer_use) == [param]


def test_redeclaration_in_same_scope_is_accepted():
    # Java rejects a second `int x` in one scope; this language keeps both
    # variables, and later uses bind the second one.
    a = analyze("int m() { int x = 1; int x = 2; x++; return x; }")
    root = a.graph.node(a.graph.method)
    assert [(a.graph.node(v).kind, a.graph.node(v).txt) for v in root.vars] == [
        (NodeKind.VAR, "x"),
        (NodeKind.VAR, "x"),
    ]
    increment = root.stmts[2]
    assert a.graph.node(increment).txt == "x++;"
    assert a.def_use.def_of(increment) == [root.vars[1]]
    assert a.def_use.use_of(increment) == [root.vars[1]]


def test_syntax_error_wins_over_name_error():
    with pytest.raises(ParseError) as exc_info:
        parse_program("int m() { x = 1; return 1 }")
    assert (exc_info.value.line, exc_info.value.column) == (1, 27)


def test_assigned_value_is_bound_before_target():
    with pytest.raises(UnresolvedVariableError) as exc_info:
        parse_program("int m() { x = y; }")
    assert str(exc_info.value) == "1:15: undeclared variable 'y'"


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError, match=r"^1:18: duplicate parameter 'a'$"):
        parse_program("int m(int a, int a) { return; }")


def test_prefix_unary_rejected():
    with pytest.raises(ParseError):
        parse_program("int m(int a) { ++a; }")


def test_non_int_types_rejected():
    with pytest.raises(ParseError):
        parse_program("float m() { return; }")
    with pytest.raises(ParseError):
        parse_program("int m() { long x = 1; }")


def test_declaration_requires_initializer():
    with pytest.raises(ParseError):
        parse_program("int m() { int x; }")


def test_assignment_is_right_associative():
    source = "int m(int a, int b) { a = b = 1; }"
    graph, du, stmt = first_statement(source)
    a, b = graph.node(graph.method).vars
    assert (stmt.txt, du.def_of(stmt.id)) == ("a = b = 1;", [b, a])
    outer = ref_parser.parse_program(source).body[0].expr
    assert isinstance(outer, ref_parser.Assign) and outer.target == "a"
    inner = outer.value
    assert isinstance(inner, ref_parser.Assign) and inner.target == "b"
    assert isinstance(inner.value, ref_parser.IntLit)
    assert_matches_reference(source)


def test_assignment_inside_chain_rejected():
    with pytest.raises(ParseError):
        parse_program("int m(int a, int b, int c) { a = (b = 1) + c; }")


def test_assignment_outside_statement_top_level_rejected():
    with pytest.raises(ParseError):
        parse_program("int m(int a) { return a = 1; }")
    with pytest.raises(ParseError):
        parse_program("int m(int a) { while (a = 1) a++; }")


def test_parentheses_are_transparent():
    plain = graph_of(parse_program, "int m(int a) { a = a + 1; }")
    assert graph_of(parse_program, "int m(int a) { a = ((a) + (1)); }") == plain


def test_parenthesized_grouping_changes_structure():
    # Only the reference parser's tree shows the structure; the label drops the group.
    source = "int m(int a, int b) { a = (a + b) * 2; }"
    value = ref_parser.parse_program(source).body[0].expr.value
    assert isinstance(value, ref_parser.Chain)
    assert value.kind is ref_parser.ChainKind.MULTIPLICATIVE
    assert isinstance(value.children[0], ref_parser.Chain)
    assert value.children[0].kind is ref_parser.ChainKind.ADDITIVE
    assert first_statement(source)[2].txt == "a = a + b * 2;"
    assert_matches_reference(source)


def test_suffix_unary_needs_variable_target():
    with pytest.raises(ParseError):
        parse_program("int m(int a) { (a + 1)++; }")
    with pytest.raises(ParseError):
        parse_program("int m() { 5++; }")


def test_chains_are_flat_per_level():
    source = "int m(int a, int b, int c) { a = a + b - c; }"
    value = ref_parser.parse_program(source).body[0].expr.value
    assert value.kind is ref_parser.ChainKind.ADDITIVE
    assert len(value.children) == 3
    assert value.operators == [ref_parser.Op.ADD, ref_parser.Op.SUB]
    assert_matches_reference(source)


def test_mixed_precedence_nests_tighter_chains():
    source = "int m(int a, int b, int c) { a = a + b * c; }"
    value = ref_parser.parse_program(source).body[0].expr.value
    assert value.kind is ref_parser.ChainKind.ADDITIVE
    mult = value.children[1]
    assert isinstance(mult, ref_parser.Chain)
    assert mult.kind is ref_parser.ChainKind.MULTIPLICATIVE
    assert_matches_reference(source)


def test_relational_chain_of_three():
    source = "int m(int a, int b, int c) { while (a < b > c) a++; }"
    cond = ref_parser.parse_program(source).body[0].cond
    assert cond.kind is ref_parser.ChainKind.RELATIONAL
    assert cond.operators == [ref_parser.Op.LT, ref_parser.Op.GT]
    graph, _, loop = first_statement(source)
    assert graph.node(loop.expr).txt == "a < b > c"
    assert_matches_reference(source)


def test_deep_grouping_parentheses_are_accepted():
    # Open groups are kept on a list, not on the stack, so 10,000 levels are
    # ten times the default recursion limit.
    deep = "int m(int a) { a = " + "(" * 10_000 + "a + 1" + ")" * 10_000 + "; return a; }"
    analyze(deep)
    plain = "int m(int a) { a = a + 1; return a; }"
    assert graph_of(parse_program, deep) == graph_of(parse_program, plain)


def test_comments_and_crlf_accepted():
    source = "// leading comment\r\nint m() { // inline\r\n  return; // done\r\n}\r\n"
    assert first_statement(source)[2].kind is NodeKind.RETURN


def test_syntax_error_reports_position_and_expectation():
    with pytest.raises(ParseError) as exc_info:
        parse_program("int m() { return 1 }")
    err = exc_info.value
    assert err.line == 1
    assert err.column == 20
    assert "expected ';'" in str(err)
    assert "expected" in str(err)


@pytest.mark.parametrize("source,message", [
    ("int m() {\n  return 1", "2:11: expected ';', found end of input"),  # expect
    ("int m() {\n  return 1 +", "2:13: expected an expression, found end of input"),  # an operand
    ("int m() {\n  return;", "2:10: expected '}', found end of input"),  # a block's end
])
def test_end_of_input_is_named_unquoted(source, message):
    with pytest.raises(ParseError) as exc_info:
        parse_program(source)
    assert str(exc_info.value) == message


def test_blanks_before_the_end_of_input_take_linear_time():
    # A token's match takes the blanks, line ends and comments before it; a
    # run of them with no token after it must not be scanned again from
    # each of its positions. Rescanning one of these tails takes seconds;
    # one scan takes about a millisecond.
    source = "int m() { return; }"
    for tail, position in ((" \t\r" * 5_000, (1, 20 + 15_000)),
                           ("\n" * 5_000, (5_001, 1)),
                           ("// c\n" * 5_000, (5_001, 1))):
        start = time.perf_counter()
        kinds, texts = mj.tokenize(source + tail)
        end = mj.token_position(source + tail, len(kinds) - 1)
        assert time.perf_counter() - start < 1.0
        assert (kinds[-2:], texts[-1], end) == (["}", "eof"], "", position)


def test_many_parameters_take_linear_time():
    # Scanning the earlier parameters for each new one takes seconds at this
    # size; a lookup in the method scope's dict takes about 0.2 s in all.
    source = "int m(" + ", ".join(f"int p{k}" for k in range(20_000)) + ") { return; }"
    start = time.perf_counter()
    a = analyze(source)
    assert time.perf_counter() - start < 1.0
    assert len(a.graph.node(0).vars) == 20_000


def test_deep_nesting_takes_linear_time():
    # An if joins the slots its then branch left waiting with its else
    # branch's, the shorter list into the longer, and a name is found in
    # one dict, not by a walk over every open scope: either otherwise takes
    # tens of seconds on the last program, ifs nested in then branches, each
    # with an else that reads `a`. The collector is paused, so that its
    # passes over the tests' own objects do not count.
    depth = 40_000
    for source, statements in ((progen.nested_program(["ifs"] * depth), depth + 1),
                               (progen.nested_program(["else-ifs"] * depth), 2 * depth + 1),
                               ("int m(int a) { " + "if (1) " * depth + "a++;" + " else a--;" * depth
                                + " }", 2 * depth + 1)):
        gc.disable()
        try:
            start = time.perf_counter()
            graph, _, _ = parse_program(source)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        assert elapsed < 1.0
        assert progen.count_statements(graph) == statements
        del graph


def test_jumps_find_their_target_in_one_step():
    # Each label keeps its own stack of open targets, and loops theirs, so a
    # jump finds its target however many others are open: a scan of every
    # open target took about 3 s on each program. Unlabeled breaks under n
    # labels in a loop, then `break L`s out of n loops nested in the loop `L`.
    n = 10_000
    for source in ("int m(int p) { while (p < 1) { " + "".join(f"L{k}: " for k in range(n))
                   + "{ " + "break; " * n + "} } return p; }",
                   "int m(int p) { L: while (p < 1) { " + "while (p < 1) { " * n
                   + "break L; " * n + "} " * n + "} return p; }"):
        gc.disable()
        try:
            start = time.perf_counter()
            graph, cf, _ = parse_program(source)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        assert elapsed < 1.0
        breaks = [node.id for node in graph.nodes if node.kind is NodeKind.BREAK]
        assert len(breaks) == n
        # every break leaves the outermost loop, for the return
        assert {graph.node(cf.cf_next[b][0]).txt for b in breaks} == {"return p;"}
        del graph, cf


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_program("int m() { return; } int")


def assert_render_roundtrip(source):
    """The graph, printed back as source and parsed again, is the same graph."""
    graph, _, _ = parse_program(source)
    assert graph_of(parse_program, ref_walks.render_graph(graph)) == graph_of(parse_program, source)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_render_roundtrip_on_corpus(path):
    assert_render_roundtrip(path.read_text())


EVERY_STATEMENT_KIND = """
int m(int a, int b) {
    int x = a+1;
    x = x * b;
    outer: while (x < 10) {
        if (x == 3) { x++; continue outer; } else break;
        inner: { if (a > b) break inner; }
        while (b < 1) { { continue; } }
        {}
    }
    if (a < b) return a;
    return;
}
"""


def test_render_text_is_pinned():
    assert ref_walks.render_graph(parse_program(EVERY_STATEMENT_KIND)[0]) == (
        "int m(int a, int b) { int x = a + 1; x = x * b; outer: while (x < 10) {"
        " if (x == 3) { x++; continue outer; } else break;"
        " inner: { if (a > b) break inner; } while (b < 1) { { continue; } } {  } }"
        " if (a < b) return a; return; }")


# Every statement kind, jumps with and without a label, a nested
# assignment, every binary and suffix operator, and unreachable code whose
# uses warn.
EVERY_NODE_KIND = """
int m(int a) {
    int x = a + 1 - 2 * a / 3;
    l: while (x < a) {
        if (x == 1) break l; else continue l;
        x++;
    }
    while (a > 0) { a--; continue; break; }
    if (a == 0) return;
    x = a = 4;
    return x;
}
"""


def test_repr_is_pinned():
    # Exactly, so that a repr that drops, adds or reorders a field fails.
    # The reference parser's tree, with the reprs the classes had as dataclasses
    assert repr(ref_parser.parse_program(EVERY_NODE_KIND)) == (
        "Method(name='m', params=[Param(name='a')], body=[LocalVarDecl(name='x', "
        "init=Chain(kind=<ChainKind.ADDITIVE: 'additive'>, children=[IdentRef(name='a'), "
        "IntLit(value=1), Chain(kind=<ChainKind.MULTIPLICATIVE: 'multiplicative'>, "
        "children=[IntLit(value=2), IdentRef(name='a'), IntLit(value=3)], "
        "operators=[<Op.MUL: '*'>, <Op.DIV: '/'>])], operators=[<Op.ADD: '+'>, <Op.SUB: '-'>])), "
        "Labeled(name='l', stmt=While(cond=Chain(kind=<ChainKind.RELATIONAL: 'relational'>, "
        "children=[IdentRef(name='x'), IdentRef(name='a')], operators=[<Op.LT: '<'>]), "
        "body=Block(stmts=[If(cond=Chain(kind=<ChainKind.EQUALITY: 'equality'>, "
        "children=[IdentRef(name='x'), IntLit(value=1)], operators=[<Op.EQ: '=='>]), "
        "then=Break(label='l'), orelse=Continue(label='l')), "
        "ExprStmt(expr=SuffixUnary(target='x', op=<Op.INC: '++'>))]))), "
        "While(cond=Chain(kind=<ChainKind.RELATIONAL: 'relational'>, "
        "children=[IdentRef(name='a'), IntLit(value=0)], operators=[<Op.GT: '>'>]), "
        "body=Block(stmts=[ExprStmt(expr=SuffixUnary(target='a', op=<Op.DEC: '--'>)), "
        "Continue(label=None), Break(label=None)])), "
        "If(cond=Chain(kind=<ChainKind.EQUALITY: 'equality'>, children=[IdentRef(name='a'), "
        "IntLit(value=0)], operators=[<Op.EQ: '=='>]), then=Return(value=None), orelse=None), "
        "ExprStmt(expr=Assign(target='x', value=Assign(target='a', value=IntLit(value=4)))), "
        "Return(value=IdentRef(name='x'))])")
    analysis = analyze(EVERY_NODE_KIND)
    assert [repr(node) for node in analysis.graph.nodes] == [
        "FlowNode(id=0, kind=<NodeKind.METHOD: 'Method'>, txt='m()', stmts=[2, 3, 12, 18, 21, "
        "22], expr=None, body=None, then=None, orelse=None, stmt=None, exit=1, vars=[23, 24], "
        "label=None)",
        "FlowNode(id=1, kind=<NodeKind.EXIT: 'Exit'>, txt='Exit', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=2, kind=<NodeKind.SIMPLE: 'SimpleStmt'>, txt='int x = a + 1 - 2 * a / 3;', "
        "stmts=(), expr=None, body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), "
        "label=None)",
        "FlowNode(id=3, kind=<NodeKind.LABEL: 'Label'>, txt='l:', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=4, exit=None, vars=(), label='l')",
        "FlowNode(id=4, kind=<NodeKind.LOOP: 'Loop'>, txt='while', stmts=(), expr=5, body=6, "
        "then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=5, kind=<NodeKind.EXPR: 'Expr'>, txt='x < a', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=6, kind=<NodeKind.BLOCK: 'Block'>, txt='{...}', stmts=[7, 11], expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=7, kind=<NodeKind.IF: 'If'>, txt='if', stmts=(), expr=8, body=None, then=9, "
        "orelse=10, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=8, kind=<NodeKind.EXPR: 'Expr'>, txt='x == 1', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=9, kind=<NodeKind.BREAK: 'Break'>, txt='break', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label='l')",
        "FlowNode(id=10, kind=<NodeKind.CONTINUE: 'Continue'>, txt='continue', stmts=(), "
        "expr=None, body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label='l')",
        "FlowNode(id=11, kind=<NodeKind.SIMPLE: 'SimpleStmt'>, txt='x++;', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=12, kind=<NodeKind.LOOP: 'Loop'>, txt='while', stmts=(), expr=13, body=14, "
        "then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=13, kind=<NodeKind.EXPR: 'Expr'>, txt='a > 0', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=14, kind=<NodeKind.BLOCK: 'Block'>, txt='{...}', stmts=[15, 16, 17], "
        "expr=None, body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=15, kind=<NodeKind.SIMPLE: 'SimpleStmt'>, txt='a--;', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=16, kind=<NodeKind.CONTINUE: 'Continue'>, txt='continue', stmts=(), "
        "expr=None, body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=17, kind=<NodeKind.BREAK: 'Break'>, txt='break', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=18, kind=<NodeKind.IF: 'If'>, txt='if', stmts=(), expr=19, body=None, "
        "then=20, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=19, kind=<NodeKind.EXPR: 'Expr'>, txt='a == 0', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=20, kind=<NodeKind.RETURN: 'Return'>, txt='return;', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=21, kind=<NodeKind.SIMPLE: 'SimpleStmt'>, txt='x = a = 4;', stmts=(), "
        "expr=None, body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=22, kind=<NodeKind.RETURN: 'Return'>, txt='return x;', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=23, kind=<NodeKind.PARAM: 'Param'>, txt='a', stmts=(), expr=None, "
        "body=None, then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
        "FlowNode(id=24, kind=<NodeKind.VAR: 'Var'>, txt='x', stmts=(), expr=None, body=None, "
        "then=None, orelse=None, stmt=None, exit=None, vars=(), label=None)",
    ]
    assert repr(analysis.df.warnings) == (
        "[UndefinedUseWarning(var=23, node=5), UndefinedUseWarning(var=23, node=13), "
        "UndefinedUseWarning(var=23, node=15), UndefinedUseWarning(var=23, node=19)]")


def test_no_class_repeats_a_base_slot():
    # A repeated slot wastes 8 bytes per instance and hides the base's.
    for info in pkgutil.iter_modules(flowgraphs.__path__, "flowgraphs."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                own = set(vars(cls).get("__slots__", ()))
                for base in cls.__mro__[1:]:
                    assert own.isdisjoint(vars(base).get("__slots__", ())), (cls, base)


def test_ast_and_flow_nodes_have_no_instance_dict():
    for node in parse_program(EVERY_NODE_KIND)[0].nodes:
        assert not hasattr(node, "__dict__"), type(node).__name__


@pytest.mark.parametrize("seed", range(40))
def test_render_roundtrip_on_random_programs(seed):
    # 500 cached programs in all, 12 or 13 per seed; every fourth is strict
    for source in random_sources()[seed:500:40]:
        assert_render_roundtrip(source)


def test_random_programs_have_else_if_chains():
    # The parser reads `else if` arms in a loop; the seeded differential
    # tests reach that loop through these programs. 197 of the 1,000 have
    # a chain, 74 of them strict, where every chain still ends in an else.
    sources = random_sources()
    chains = [seed for seed, source in enumerate(sources) if "} else if (" in source]
    assert len(chains) >= 150
    assert sum(seed % 4 == 0 for seed in chains) >= 50
    for seed in chains:
        if seed % 4 == 0:  # strict
            graph = parse_program(sources[seed])[0]
            assert all(node.orelse is not None for node in graph.nodes if node.kind is NodeKind.IF)


@pytest.mark.parametrize("seed", range(40))
def test_chain_invariants_on_random_programs(seed):
    # The reference parser's chains; the package, which builds none, must
    # give the same statements.
    source = progen.gen_program(seed + 500, strict=False, max_stmts=30)
    for e in ast_nodes(ref_parser.parse_program(source)):
        if isinstance(e, ref_parser.Chain):
            assert len(e.operators) == len(e.children) - 1
            assert all(op in ref_parser.CHAIN_OPS[e.kind] for op in e.operators)
    assert_matches_reference(source)


# ---- the parser's name binding against tests/ref_walks.py::resolve ----


def assert_links_match_reference(source):
    """The reference parser binds every name as `resolve` does, and the
    package's def/use sets hold the same declarations' variables."""
    ref_method = ref_parser.parse_program(source)
    for occ, decl in ref_walks.resolve(ref_method).items():
        assert occ.decl is decl
    graph, _, du = parse_program(source)
    assert_labels_and_sets_match_reference(graph, du, ref_method)


def test_decl_links_match_reference_resolve():
    for source in random_sources():
        assert_links_match_reference(source)


# Mutations rely on progen's layout: one statement per line, top-level
# statements indented by four spaces.

def drop_declaration(lines, rng):
    decls = [i for i, line in enumerate(lines) if i and line.lstrip().startswith("int ")]
    if decls:
        i = rng.choice(decls)
        lines[i] = lines[i].replace("int ", "", 1)
        return lines


def rename_jump_label(lines, rng):
    jumps = [i for i, line in enumerate(lines) if re.search(r"(break|continue) L\d+;", line)]
    if jumps:
        labels = sorted(set(re.findall(r"\b(L\d+):", "\n".join(lines)))) + ["Lx"]
        i = rng.choice(jumps)
        lines[i] = re.sub(r"L\d+;", rng.choice(labels) + ";", lines[i])
        return lines


def move_break_out_of_loops(lines, rng):
    breaks = [i for i, line in enumerate(lines) if line.lstrip().startswith("break")]
    if breaks:
        moved = lines.pop(rng.choice(breaks)).strip()
        tops = [i for i, line in enumerate(lines) if i and re.match(r"    [^ }]", line)]
        lines.insert(rng.choice(tops + [len(lines) - 2]), "    " + moved)
        return lines


def reuse_variable_name(lines, rng):
    # progen never reuses a name; this makes shadowing, redeclaration in one
    # scope, and uses after the scope of a shadowing declaration has ended
    source = "\n".join(lines)
    names = sorted(set(re.findall(r"\bv\d+\b", source)))
    decls = re.findall(r"\n +int (v\d+) =", source)
    if len(names) > 1 and decls:
        old = rng.choice(decls)
        new = rng.choice([name for name in names if name != old])
        return re.sub(rf"\b{old}\b", new, source).split("\n")


def outcome(parse, source):
    try:
        parse(source)
    except FlowgraphsError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return None


def reference_outcome(source):
    """The error of parsing without binding, then resolving separately."""
    return outcome(lambda text: ref_walks.resolve(ref_parser._Parser(ref_parser.tokenize(text))
                                               .parse_method()), source)


@pytest.mark.parametrize("mutate,min_errors", [
    (drop_declaration, 100),
    (rename_jump_label, 30),
    (move_break_out_of_loops, 100),
    (reuse_variable_name, 0),
])
def test_name_errors_match_reference_on_mutants(mutate, min_errors):
    rng = random.Random(mutate.__name__)
    mutants = []
    # The cached programs first, then more from the same generator, until
    # `mutate` has changed 100 of them.
    more = (progen.gen_program(seed, strict=seed % 4 == 0, max_stmts=10 + seed % 50)
            for seed in range(1000, 3000))
    for source in itertools.chain(random_sources(), more):
        lines = mutate(source.split("\n"), rng)
        if lines is not None:
            mutants.append("\n".join(lines))
        if len(mutants) == 100:
            break
    assert len(mutants) == 100
    errors = 0
    for mutant in mutants:
        expected = reference_outcome(mutant)
        assert outcome(parse_program, mutant) == expected, mutant
        if expected is None:
            assert_links_match_reference(mutant)
        assert_matches_reference(mutant)
        errors += expected is not None
    assert errors >= min_errors


# ---- any input text ----

FRAGMENTS = (
    "int", "while", "if", "else", "return", "break", "continue", "m", "a", "v1", "_x", "L0",
    "0", "12", "12ab", "007", "+", "-", "*", "/", "<", ">", "=", "==", "++", "--",
    "(", ")", "{", "}", ";", ":", ",", " ", "  ", "\t", "\n", "\r\n", "\r", "//", "// note",
    "\x0b", "\f", "é", "$", "\u0663",  # ARABIC-INDIC DIGIT THREE, a decimal digit to `\d`
)

# Mini-Java tokens, blanks and line ends, with an arbitrary character now and then.
mini_java_text = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.characters()), max_size=80
).map("".join)


@st.composite
def edited_programs(draw):
    """A progen program with a few short slices replaced by fragments."""
    source = progen.gen_program(draw(st.integers(0, 10_000)), strict=draw(st.booleans()),
                                max_stmts=draw(st.integers(1, 40)))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(source)))
        end = draw(st.integers(start, min(len(source), start + 8)))
        source = source[:start] + draw(st.sampled_from(("",) + FRAGMENTS)) + source[end:]
    return source


@st.composite
def deeply_nested_programs(draw):
    """`a++;` in up to 3,000 levels of the NESTING shapes, in runs of one shape."""
    runs = draw(st.lists(st.tuples(st.sampled_from(list(progen.NESTING)), st.integers(1, 3_000)),
                         min_size=1, max_size=3))
    levels = [shape for shape, count in runs for _ in range(count)]
    return progen.nested_program(levels[:3_000])


def lex(tokenize, text):
    """The (kind, text, line, col) tuple of every token, or the error."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def tokens_with_positions(text):
    kinds, texts = mj.tokenize(text)
    return [(kind, token, *mj.token_position(text, i))
            for i, (kind, token) in enumerate(zip(kinds, texts))]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(mini_java_text, st.text()))
@example("")
@example("int m() { return; } //")
@example("int m()\r\n{\treturn;\r\n}")
@example("int x\x0b= 1;")
@example("int é = 1;")
@example("12ab")
@example("int x = 1; // a lone \r does not end a comment\n")
@example("int m() { }  \t\r\n \n\t ")
@example("int m() { }\n\n  ")  # trailing blanks: one end token
@example("return \u0663;")  # an Arabic-Indic digit three is a number
@example("return \u00b2;")  # a superscript two is not
@example("int m() { return 1 }\n$")  # the character error, after a syntax error
def test_tokenize_matches_reference(text):
    assert lex(tokens_with_positions, text) == lex(ref_walks.tokenize, text)


def test_valid_programs_never_reach_token_position(monkeypatch):
    # A position is worked out only to word an error; a valid program has none.
    sources = ([path.read_text() for path in CORPUS] + list(random_sources()[:200])
               + [progen.gen_scale(4, 3_000)])
    expected = [graph_of(parse_program, source) for source in sources]

    def refuse(source, i):
        raise AssertionError(f"a valid program asked for the position of token {i}")

    monkeypatch.setattr(mj, "token_position", refuse)
    assert [graph_of(parse_program, source) for source in sources] == expected
    assert all(isinstance(nodes, list) for nodes, *_ in expected)  # every one parsed


# ---- the parser against tests/ref_parser.py and ref_walks.lower ----


def test_parser_matches_reference_parser():
    corpus = [path.read_text() for path in CORPUS]
    for source in (*corpus, *random_sources(), progen.gen_scale(1, 2_000)):
        assert_matches_reference(source)


def test_errors_deep_in_a_large_file_match_reference():
    # token_position finds the last token of a 230 kB program as the
    # reference tokenizer counted it: a character error and a name error.
    head, last, tail = progen.gen_scale(7, 10_000).rpartition("return v1;")
    assert last and tail == "\n}\n"
    for statement, error_class in (("return v1$", ParseError),
                                   ("return undeclared;", UnresolvedVariableError)):
        source = head + statement + tail
        assert graph_of(parse_program, source)[0] is error_class
        assert_matches_reference(source)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(mini_java_text, edited_programs(), st.text()))
@example("int m() { return 1")
@example("int m() { return 1 +")
@example("int m() { return;")
@example("int m(int a) {\n  (a)++; ((a + 1)) * a; a = (a);\n}")
@example("int m() { return " + "9" * 5_000 + "; }")  # more digits than int() converts
# Where one flat scan could part from precedence climbing: a flat chain as
# long as the fanout benchmark's `return`, mixed levels, nested groups, a
# suffix after anything but a variable, assignment to a chain, an
# assignment whose names are all undeclared (the value binds first), and
# deep parentheses (below, with the other nesting shapes).
@example("int m(int a) { return " + " + ".join(["a"] * 800) + "; }")
@example("int m(int a, int b, int c, int d, int e) { return a + b * c == d < e; }")
@example("int m(int a, int b) { return ((a + 1)) * (b); }")
@example("int m(int a) { (a)++; }")
@example("int m(int a) { 5++; }")
@example("int m(int a) { a++ ++; }")
@example("int m(int a, int b, int c) { a + b = c; }")
@example("int m() { x = y = z; }")
@example("int m() { return \u0663; }")  # labelled "return 3;"
@example("int m() { return 1 }\n$")  # the character error wins
# Jump shapes for the control-flow edges the parser makes as it goes: a
# label shadowed by a loop's, and a loop's by a block's (where `continue`
# finds no loop); two labels on one loop, where only the inner one names
# it; a break out of an else branch; jumps after a return; and an empty
# then branch before a full else, whose condition goes to the
# continuation first.
@example("int m(int a) { L: { L: while (a < 1) { a++; continue L; } a--; } return a; }")
@example("int m(int a) { L: while (a < 1) { L: { break L; } a++; } return a; }")
@example("int m(int a) { L: while (a < 1) { L: { continue L; } } }")
@example("int m(int a) { A: B: while (a < 1) { a++; break A; } return a; }")
@example("int m(int a) { A: B: while (a < 1) { continue A; } }")
@example("int m(int a) { L: if (a < 1) a++; else { a--; break L; } return a; }")
@example("int m(int a) { while (a < 1) { return a; break; continue; a++; } return; }")
@example("int m(int a) { if (a < 1) {} else { a++; } return a; }")
# Else-if chains, each arm an else branch that holds the next if: jumps out
# of arms, empty arms, returns in every arm, a name declared in one arm and
# read by the next arm's condition, and a syntax error in a later arm.
@example("int m(int a) { L: while (a > 0) { if (a == 1) break; else if (a == 2) continue L;"
         " else if (a == 3) { a--; } else a++; } return a; }")
@example("int m(int a) { if (a < 1) { } else if (a < 2) { } else if (a < 3) { } return a; }")
@example("int m(int a) { if (a < 1) return 1; else if (a < 2) return 2; else return 3; }")
@example("int m(int a) { if (a < 1) int x = 1; else if (x < 2) a++; }")
@example("int m(int a) { if (a < 1) a++; else if (a < 2 { } }")
# Scopes: a declaration under a label in a block is seen after it, one that
# is a loop body (through a label) is not, and a block's declarations, one
# name twice among them, are undone when it ends.
@example("int m(int a) { { L: int x = 1; x++; } while (a < 1) L: int y = 1; y++; }")
@example("int m(int a) { int x = a; { int a = 1; int x = 2; int x = 3; { int a = x; } a++; }"
         " return a + x; }")
# Every nesting shape 300 levels deep, which the reference parser follows
# inside @given, and all but assignments (which parentheses may not hold)
# mixed, so that frames of every kind stack up in turn.
@example(progen.nested_program(["blocks"] * 300))
@example(progen.nested_program(["whiles"] * 300))
@example(progen.nested_program(["braced whiles"] * 300))
@example(progen.nested_program(["ifs"] * 300))
@example(progen.nested_program(["else-ifs"] * 300))
@example(progen.nested_program(["labels"] * 300))
@example(progen.nested_program(["assignments"] * 300))
@example(progen.nested_program(["parentheses"] * 300))
@example(progen.nested_program([shape for shape in progen.NESTING if shape != "assignments"] * 40))
def test_parser_matches_reference_parser_on_any_text(source):
    assert_matches_reference(source)


# A deep example costs about five others, so one in eight is deep.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 7).flatmap(lambda k: deeply_nested_programs() if k == 0 else st.one_of(
    st.text(max_size=200), mini_java_text, edited_programs())))
@example("int m() { return " + "9" * 5_000 + "; }")  # more digits than int() converts
@example(progen.nested_program(["braced whiles"] * 3_000))
def test_any_text_gives_analysis_or_flowgraphs_error(source):
    try:
        result = analyze(source)
    except FlowgraphsError:
        return
    assert isinstance(result, Analysis)


# ---- labels and def/use sets against the reference walks ----


def ast_nodes(node):
    """The nodes below `node` in a reference parser's tree, in pre-order:
    statements and expressions.

    Child fields are the ones in the repr (`_fields`); positions, labels,
    def/use sets and `decl` links are left out of it.
    """
    for name in node._fields:
        value = getattr(node, name)
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ref_parser.Node):
                yield child
                yield from ast_nodes(child)


OWN_EXPRESSION = {ref_parser.LocalVarDecl: "init", ref_parser.ExprStmt: "expr",
                  ref_parser.Return: "value"}


def assert_labels_and_sets_match_reference(graph, du, ref_method):
    """Each node's label is `text_of` its image in the reference parser's
    tree, and each flow instruction's uses and definitions are
    `expr_reads_writes` of its expression there, duplicates dropped; a
    declaration also defines its variable, last, and the Method its
    parameters."""
    sources = images(ref_method)
    assert len(sources) == len(graph.nodes)
    root = graph.node(graph.method)
    var_of = {sources[v]: v for v in root.vars}
    for node, ref in zip(graph.nodes, sources):
        reads, writes = [], []
        if ref is None:
            assert node.txt == EXIT_TEXT
        elif node.id in root.vars:
            assert node.txt == ref.name
        elif isinstance(ref, ref_parser.Method):
            assert node.txt == ref_walks.text_of(ref)
            writes = [var_of[p] for p in ref.params]
        else:
            assert node.txt == ref_walks.text_of(ref)
            if isinstance(ref, ref_parser.Expression):  # a condition
                expr = ref
            else:
                attr = OWN_EXPRESSION.get(type(ref))
                expr = None if attr is None else getattr(ref, attr)
            if expr is not None:
                reads, writes = ref_walks.expr_reads_writes(expr, var_of)
            if isinstance(ref, ref_parser.LocalVarDecl):
                writes.append(var_of[ref])
        assert du.use_of(node.id) == list(dict.fromkeys(reads))
        assert du.def_of(node.id) == list(dict.fromkeys(writes))


def test_labels_and_sets_match_reference():
    for source in random_sources():
        graph, _, du = parse_program(source)
        assert_labels_and_sets_match_reference(graph, du, ref_parser.parse_program(source))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(mini_java_text, edited_programs()))
@example("int m(int a, int b) { { int a = a++ + b; a = b = a-- * (a + 1); } return ((a)) == 007; }")
@example("int m() { return \u0663 + 007; }")  # a label writes each number in ASCII digits
def test_labels_and_sets_match_reference_on_any_text(source):
    try:
        graph, _, du = parse_program(source)
    except FlowgraphsError:
        return
    assert_labels_need_no_escape(graph)
    assert_labels_and_sets_match_reference(graph, du, ref_parser.parse_program(source))


def test_statement_starting_with_a_parenthesis_keeps_its_own_position():
    # In the reference parser's tree; the package keeps positions only for errors.
    source = "int m(int a) {\n  (a)++; a = 1;\n}"
    ref_stmt = ref_parser.parse_program(source).body
    assert (ref_stmt[0].pos, ref_stmt[0].expr.pos) == ((2, 3), (2, 4))
    assert ref_stmt[1].pos is ref_stmt[1].expr.pos
    assert_matches_reference(source)
