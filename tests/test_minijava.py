import importlib
import inspect
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
    Pos,
    UnresolvedLabelError,
    UnresolvedVariableError,
    parse_program,
    render_method,
)
from flowgraphs.model import NodeKind
from flowgraphs.pipeline import Analysis, analyze

import progen
import ref_parser
import ref_walks
from helpers import CORPUS, random_sources


def test_minimal_program():
    method = parse_program("int m() { return; }")
    assert method.name == "m"
    assert method.params == []
    assert len(method.body) == 1
    ret = method.body[0]
    assert isinstance(ret, mj.Return) and ret.txt == "return;"
    assert ret.reads == ret.writes == ()


def test_while_with_suffix_unary():
    source = "int m(int a) { while (a < 3) a++; }"
    method = parse_program(source)
    (a,) = method.params
    loop = method.body[0]
    assert isinstance(loop, mj.While)
    assert (loop.cond, loop.reads, loop.writes) == ("a < 3", (a,), ())
    body = loop.body
    assert isinstance(body, mj.ExprStmt)
    assert (body.txt, body.reads, body.writes) == ("a++;", (a,), (a,))
    cond = ref_parser.parse_program(source).body[0].cond
    assert isinstance(cond, ref_parser.Chain)
    assert cond.kind is ref_parser.ChainKind.RELATIONAL
    assert cond.operators == [ref_parser.Op.LT]
    assert isinstance(cond.children[0], ref_parser.IdentRef) and cond.children[0].name == "a"
    assert isinstance(cond.children[1], ref_parser.IntLit) and cond.children[1].value == 3
    assert_parsers_agree(source)


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
        "int m(int c) { while (c < 1) int x = 1; x++; }",
    ):
        with pytest.raises(UnresolvedVariableError):
            parse_program(source)


def test_shadowing_binds_innermost():
    method = parse_program("int m(int a) { { int a = a + 1; a++; } a--; }")
    block = method.body[0]
    inner_decl = block.stmts[0]
    inner_use = block.stmts[1]  # a++
    outer_use = method.body[1]  # a--
    # the initializer's `a` refers to the parameter, not the new local
    assert inner_decl.reads == (method.params[0],)
    assert inner_use.reads == inner_use.writes == (inner_decl,)
    assert outer_use.reads == outer_use.writes == (method.params[0],)


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
    method = parse_program(source)
    a, b = method.params
    assert (method.body[0].txt, method.body[0].writes) == ("a = b = 1;", (b, a))
    outer = ref_parser.parse_program(source).body[0].expr
    assert isinstance(outer, ref_parser.Assign) and outer.target == "a"
    inner = outer.value
    assert isinstance(inner, ref_parser.Assign) and inner.target == "b"
    assert isinstance(inner.value, ref_parser.IntLit)
    assert_parsers_agree(source)


def test_assignment_inside_chain_rejected():
    with pytest.raises(ParseError):
        parse_program("int m(int a, int b, int c) { a = (b = 1) + c; }")


def test_assignment_outside_statement_top_level_rejected():
    with pytest.raises(ParseError):
        parse_program("int m(int a) { return a = 1; }")
    with pytest.raises(ParseError):
        parse_program("int m(int a) { while (a = 1) a++; }")


def test_parentheses_are_transparent():
    plain = parse_program("int m(int a) { a = a + 1; }")
    grouped = parse_program("int m(int a) { a = ((a) + (1)); }")
    assert repr(plain) == repr(grouped)


def test_parenthesized_grouping_changes_structure():
    # Only the reference parser's tree shows the structure; the label drops the group.
    source = "int m(int a, int b) { a = (a + b) * 2; }"
    value = ref_parser.parse_program(source).body[0].expr.value
    assert isinstance(value, ref_parser.Chain)
    assert value.kind is ref_parser.ChainKind.MULTIPLICATIVE
    assert isinstance(value.children[0], ref_parser.Chain)
    assert value.children[0].kind is ref_parser.ChainKind.ADDITIVE
    assert parse_program(source).body[0].txt == "a = a + b * 2;"
    assert_parsers_agree(source)


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
    assert_parsers_agree(source)


def test_mixed_precedence_nests_tighter_chains():
    source = "int m(int a, int b, int c) { a = a + b * c; }"
    value = ref_parser.parse_program(source).body[0].expr.value
    assert value.kind is ref_parser.ChainKind.ADDITIVE
    mult = value.children[1]
    assert isinstance(mult, ref_parser.Chain)
    assert mult.kind is ref_parser.ChainKind.MULTIPLICATIVE
    assert_parsers_agree(source)


def test_relational_chain_of_three():
    source = "int m(int a, int b, int c) { while (a < b > c) a++; }"
    cond = ref_parser.parse_program(source).body[0].cond
    assert cond.kind is ref_parser.ChainKind.RELATIONAL
    assert cond.operators == [ref_parser.Op.LT, ref_parser.Op.GT]
    assert parse_program(source).body[0].cond == "a < b > c"
    assert_parsers_agree(source)


def test_deep_grouping_parentheses_are_accepted():
    # Each level of parentheses costs the parser one stack frame, so 150
    # levels stay well inside Python's default recursion limit.
    deep = "int m(int a) { a = " + "(" * 150 + "a + 1" + ")" * 150 + "; return a; }"
    analyze(deep)
    assert repr(parse_program(deep)) == repr(parse_program("int m(int a) { a = a + 1; return a; }"))


def test_comments_and_crlf_accepted():
    source = "// leading comment\r\nint m() { // inline\r\n  return; // done\r\n}\r\n"
    method = parse_program(source)
    assert isinstance(method.body[0], mj.Return)


def test_positions_attached():
    method = parse_program("int m() {\n  return;\n}")
    assert method.pos.line == 1
    assert method.body[0].pos.line == 2
    assert method.body[0].pos.col == 3


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
    # A token's match takes the blanks before it; a run of blanks with no
    # token after it must not be scanned again from each of its positions.
    # Rescanning this tail takes seconds; one scan takes about a millisecond.
    tail = " \t\r" * 5_000
    start = time.perf_counter()
    kinds, _, lines, cols = mj.tokenize("int m() { return; }" + tail)
    assert time.perf_counter() - start < 1.0
    assert (kinds[-1], lines[-1], cols[-1]) == ("eof", 1, 20 + len(tail))


def test_many_parameters_take_linear_time():
    # Scanning the earlier parameters for each new one takes seconds at this
    # size; a lookup in the method scope's dict takes about 0.2 s in all.
    source = "int m(" + ", ".join(f"int p{k}" for k in range(20_000)) + ") { return; }"
    start = time.perf_counter()
    a = analyze(source)
    assert time.perf_counter() - start < 1.0
    assert len(a.graph.node(0).vars) == 20_000


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_program("int m() { return; } int")


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_render_roundtrip_on_corpus(path):
    method = parse_program(path.read_text())
    again = parse_program(render_method(method))
    assert repr(again) == repr(method)


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
    assert render_method(parse_program(EVERY_STATEMENT_KIND)) == (
        "int m(int a, int b) { int x = a + 1; x = x * b; outer: while (x < 10) {"
        " if (x == 3) { x++; continue outer; } else break;"
        " inner: { if (a > b) break inner; } while (b < 1) { { continue; } } {  } }"
        " if (a < b) return a; return; }")


def test_render_rejects_unknown_statement_type():
    with pytest.raises(TypeError, match="no source rule for Statement"):
        render_method(mj.Method("m", [], [mj.Statement()]))


AST_CLASSES = [cls for cls in vars(mj).values()
               if isinstance(cls, type) and issubclass(cls, mj.Node)]


def test_constructors_take_shared_fields_by_position_or_keyword():
    shared = {"pos": Pos(3, 4), "txt": "t", "reads": ("r",), "writes": ("w",)}
    assert len(AST_CLASSES) == 13  # Node, Param, Method, Statement and the nine statements
    for cls in AST_CLASSES:
        names = list(inspect.signature(cls).parameters)
        own = names[:names.index("pos")]
        base = names[len(own):]
        assert base == list(shared)[:len(base)], cls
        values = dict(zip(own, (object() for _ in own)), **{name: shared[name] for name in base})
        by_position = cls(*values.values())
        by_keyword = cls(*(values[name] for name in own), **{name: shared[name] for name in base})
        slots = {slot for c in cls.__mro__ for slot in getattr(c, "__slots__", ())}
        assert slots == set(names), cls
        for node in (by_position, by_keyword):
            assert all(getattr(node, name) is value for name, value in values.items()), cls
    node, stmt = mj.Node(), mj.Statement()
    assert (node.pos, node.txt) == (None, "")
    assert (stmt.pos, stmt.txt, stmt.reads, stmt.writes) == (None, "", (), ())


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
    assert repr(parse_program(EVERY_NODE_KIND)) == (
        "Method(name='m', params=[Param(name='a')], body=[LocalVarDecl(name='x', "
        "txt='int x = a + 1 - 2 * a / 3;'), Labeled(name='l', stmt=While(cond='x < a', "
        "body=Block(stmts=[If(cond='x == 1', then=Break(label='l'), orelse=Continue(label='l')), "
        "ExprStmt(txt='x++;')]))), While(cond='a > 0', body=Block(stmts=[ExprStmt(txt='a--;'), "
        "Continue(label=None), Break(label=None)])), If(cond='a == 0', "
        "then=Return(txt='return;'), orelse=None), ExprStmt(txt='x = a = 4;'), "
        "Return(txt='return x;')])")
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
    method = parse_program(EVERY_NODE_KIND)
    flow_nodes = analyze(EVERY_NODE_KIND).graph.nodes
    for node in [method, *method.params, *ast_nodes(method), *flow_nodes]:
        assert not hasattr(node, "__dict__"), type(node).__name__


@pytest.mark.parametrize("seed", range(40))
def test_render_roundtrip_on_random_programs(seed):
    # 500 cached programs in all, 12 or 13 per seed; every fourth is strict
    for source in random_sources()[seed:500:40]:
        method = parse_program(source)
        again = parse_program(render_method(method))
        assert repr(again) == repr(method)


@pytest.mark.parametrize("seed", range(40))
def test_chain_invariants_on_random_programs(seed):
    # The reference parser's chains; the package, which builds none, must
    # give the same statements.
    source = progen.gen_program(seed + 500, strict=False, max_stmts=30)
    for e in ast_nodes(ref_parser.parse_program(source)):
        if isinstance(e, ref_parser.Chain):
            assert len(e.operators) == len(e.children) - 1
            assert all(op in ref_parser.CHAIN_OPS[e.kind] for op in e.operators)
    assert_parsers_agree(source)


# ---- the parser's name binding against tests/ref_walks.py::resolve ----


def assert_links_match_reference(source):
    """The reference parser binds every name as `resolve` does, and the
    package's def/use sets hold the same declarations."""
    ref_method = ref_parser.parse_program(source)
    for occ, decl in ref_walks.resolve(ref_method).items():
        assert occ.decl is decl
    assert_labels_and_sets_match_reference(parse_program(source), ref_method)


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
    for source in random_sources():
        lines = mutate(source.split("\n"), rng)
        if lines is not None:
            mutants.append("\n".join(lines))
    mutants = mutants[:100]
    assert len(mutants) == 100
    errors = 0
    for mutant in mutants:
        expected = reference_outcome(mutant)
        assert outcome(parse_program, mutant) == expected, mutant
        if expected is None:
            assert_links_match_reference(mutant)
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
def test_tokenize_matches_reference(text):
    assert lex(lambda t: list(zip(*mj.tokenize(t))), text) == lex(ref_walks.tokenize, text)


# ---- the parser against tests/ref_parser.py ----


def front_end(parse, source):
    """What `parse` makes of `source`: the error, or the AST's repr (its
    statements, with each simple statement's label and each condition's)
    and, per node in walk order, its position, label and def/use sets,
    with declarations given by their walk position."""
    try:
        method = parse(source)
    except FlowgraphsError as exc:
        return type(exc), str(exc), exc.line, exc.column
    nodes = [method, *method.params, *ast_nodes(method)]
    at = {id(node): k for k, node in enumerate(nodes)}
    return repr(method), [
        (type(node.pos), node.pos, node.txt,
         [at[id(decl)] for decl in getattr(node, "reads", ())],
         [at[id(decl)] for decl in getattr(node, "writes", ())])
        for node in nodes]


def assert_parsers_agree(source):
    assert front_end(parse_program, source) == front_end(ref_parser.parse_statements, source)


def test_parser_matches_reference_parser():
    for source in (*random_sources(), progen.gen_scale(1, 2_000)):
        assert_parsers_agree(source)


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
# deep parentheses (the test below goes as deep as the reference follows).
@example("int m(int a) { return " + " + ".join(["a"] * 800) + "; }")
@example("int m(int a, int b, int c, int d, int e) { return a + b * c == d < e; }")
@example("int m(int a, int b) { return ((a + 1)) * (b); }")
@example("int m(int a) { (a)++; }")
@example("int m(int a) { 5++; }")
@example("int m(int a) { a++ ++; }")
@example("int m(int a, int b, int c) { a + b = c; }")
@example("int m() { x = y = z; }")
@example(progen.nested_program(["parentheses"] * 300))
def test_parser_matches_reference_parser_on_any_text(source):
    assert_parsers_agree(source)


def test_parser_matches_reference_parser_on_its_deepest_parentheses():
    # The reference parser spends two stack frames on a level of parentheses
    # and the package one, so the reference runs out of stack first.
    def program(depth):
        return progen.nested_program(["parentheses"] * depth)

    passes, failing = 1, 3_000
    while failing - passes > 1:
        mid = (passes + failing) // 2
        try:
            front_end(ref_parser.parse_statements, program(mid))
            passes = mid
        except RecursionError:
            failing = mid
    assert passes > 100
    source = program(passes)
    assert front_end(parse_program, source) == front_end(ref_parser.parse_statements, source)


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


# ---- stored labels, def/use sets and positions ----


def ast_nodes(node):
    """The AST nodes below `node`, in pre-order: statements and, in a
    reference parser's tree, expressions.

    Child fields are the ones in the repr (`_fields`); positions, labels,
    def/use sets and `decl` links are left out of it.
    """
    for name in node._fields:
        value = getattr(node, name)
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, (mj.Statement, ref_parser.Expression)):
                yield child
                yield from ast_nodes(child)


OWN_EXPRESSION = {ref_parser.LocalVarDecl: "init", ref_parser.ExprStmt: "expr",
                  ref_parser.Return: "value", mj.While: "cond", mj.If: "cond"}


def assert_labels_and_sets_match_reference(method, ref_method):
    """Each statement's label, and each condition's, is `text_of` the
    reference parser's node, and its reads and writes are
    `expr_reads_writes` of its expression there."""
    assert method.txt == ref_walks.text_of(ref_method)
    statements = list(ast_nodes(method))
    ref_statements = [node for node in ast_nodes(ref_method) if isinstance(node, mj.Statement)]
    assert len(statements) == len(ref_statements)
    # each reference declaration -> the package's
    image = dict(zip([*ref_method.params, *ref_statements], [*method.params, *statements]))
    for node, ref in zip(statements, ref_statements):
        assert isinstance(ref, type(node))
        assert node.txt == ref_walks.text_of(ref)
        if isinstance(node, (mj.While, mj.If)):
            assert node.cond == ref_walks.text_of(ref.cond)
        attr = OWN_EXPRESSION.get(type(ref))
        expr = None if attr is None else getattr(ref, attr)
        want = ([], []) if expr is None else ref_walks.expr_reads_writes(expr, image)
        assert (list(node.reads), list(node.writes)) == want


def test_labels_and_sets_match_reference():
    for source in random_sources():
        assert_labels_and_sets_match_reference(parse_program(source),
                                               ref_parser.parse_program(source))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(mini_java_text, edited_programs()))
@example("int m(int a, int b) { { int a = a++ + b; a = b = a-- * (a + 1); } return ((a)) == 007; }")
def test_labels_and_sets_match_reference_on_any_text(source):
    try:
        method = parse_program(source)
    except FlowgraphsError:
        return
    assert_labels_and_sets_match_reference(method, ref_parser.parse_program(source))


def test_every_node_has_a_position():
    source = "int m(int a, int b) {\n  a = (b + 1) * a < 2;\n}"
    relational = ref_parser.parse_program(source).body[0].expr.value
    assert relational.pos == relational.children[0].pos == Pos(2, 8)
    assert parse_program(source).body[0].pos == Pos(2, 3)
    for source in random_sources():
        assert all(node.pos is not None for node in ast_nodes(parse_program(source)))


# The first token of each node with a fixed one; the rest are checked below.
FIRST_TOKEN = {mj.Method: "int", mj.LocalVarDecl: "int", mj.While: "while", mj.If: "if",
               mj.Return: "return", mj.Break: "break", mj.Continue: "continue",
               mj.Block: "{"}


def test_positions_are_shared_and_point_at_first_tokens():
    source = progen.gen_scale(3, 2_000)
    method = parse_program(source)
    nodes = [method, *method.params, *ast_nodes(method)]
    # One Pos object per source position
    assert len({id(node.pos) for node in nodes}) == len({node.pos for node in nodes})
    _, texts, lines, cols = mj.tokenize(source)
    tokens = dict(zip(zip(lines, cols), texts))
    for node in nodes:
        text = tokens[node.pos]
        if type(node) in FIRST_TOKEN:
            assert text == FIRST_TOKEN[type(node)]
        elif isinstance(node, (mj.Param, mj.Labeled)):
            assert text == node.name
        else:
            assert isinstance(node, mj.ExprStmt)
            assert text == "(" or node.txt.startswith(text)
    statements = [node.pos for node in nodes if isinstance(node, mj.Statement)]
    assert statements == sorted(statements)


def test_statement_starting_with_a_parenthesis_keeps_its_own_position():
    source = "int m(int a) {\n  (a)++; a = 1;\n}"
    stmt = parse_program(source).body
    assert (stmt[0].pos, stmt[1].pos) == (Pos(2, 3), Pos(2, 10))
    ref_stmt = ref_parser.parse_program(source).body
    assert (ref_stmt[0].pos, ref_stmt[0].expr.pos) == (Pos(2, 3), Pos(2, 4))
    assert ref_stmt[1].pos is ref_stmt[1].expr.pos
    assert_parsers_agree(source)
