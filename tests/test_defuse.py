import re

import pytest

from flowgraphs.model import NodeKind
from flowgraphs.pipeline import analyze

import progen
import ref_parser
from helpers import first_statement, images


def names(analysis, ids):
    return [analysis.graph.node(v).txt for v in ids]


def du_of(analysis, txt):
    nid = next(n.id for n in analysis.graph.nodes if n.txt == txt)
    return (
        names(analysis, analysis.def_use.def_of(nid)),
        names(analysis, analysis.def_use.use_of(nid)),
    )


def reads_writes(stmt_src: str):
    """(uses, definitions) of the expression statement `stmt_src`, as variable names."""
    graph, du, stmt = first_statement(f"int m(int a, int b, int i) {{ {stmt_src} }}")
    return ([graph.node(v).txt for v in du.use_of(stmt.id)],
            [graph.node(v).txt for v in du.def_of(stmt.id)])


def test_assignment_reads_value_writes_target():
    reads, writes = reads_writes("a = b + 1;")
    assert writes == ["a"]
    assert reads == ["b"]


def test_suffix_unary_reads_and_writes():
    reads, writes = reads_writes("i++;")
    assert reads == ["i"]
    assert writes == ["i"]


def test_literal_reads_nothing():
    reads, writes = reads_writes("5;")
    assert reads == [] and writes == []


def test_chain_concatenates_in_child_order():
    reads, writes = reads_writes("b + i++ + a;")
    assert reads == ["b", "i", "a"]
    assert writes == ["i"]


def test_assignment_keeps_value_writes():
    # a++ inside the assigned value still defines a
    reads, writes = reads_writes("b = a++ + i;")
    assert reads == ["a", "i"]
    assert writes == ["a", "b"]


def test_assigned_variable_is_not_read():
    a = analyze("int m(int x) { x = 2; }")
    defs, uses = du_of(a, "x = 2;")
    assert defs == ["x"] and uses == []


def test_declaration_defines_last():
    a = analyze("int m(int b) { int x = b++; }")
    defs, uses = du_of(a, "int x = b++;")
    assert defs == ["b", "x"]
    assert uses == ["b"]


def test_declaration_example():
    a = analyze("int m(int a) { int x = a * 2; }")
    defs, uses = du_of(a, "int x = a * 2;")
    assert defs == ["x"] and uses == ["a"]


def test_bare_return_has_empty_sets():
    a = analyze("int m() { return; }")
    defs, uses = du_of(a, "return;")
    assert defs == [] and uses == []


def test_return_value_is_used():
    a = analyze("int m(int a) { return a + 1; }")
    defs, uses = du_of(a, "return a + 1;")
    assert defs == [] and uses == ["a"]


def test_method_defines_parameters():
    a = analyze("int m(int a, int b) { return; }")
    defs, uses = du_of(a, "m()")
    assert defs == ["a", "b"] and uses == []


def test_method_without_parameters_defines_nothing():
    a = analyze("int m() { return; }")
    defs, uses = du_of(a, "m()")
    assert defs == [] and uses == []


def test_condition_def_use_with_unary():
    a = analyze("int m(int a) { while (a++ < 3) { a = a + 1; } }")
    defs, uses = du_of(a, "a++ < 3")
    assert defs == ["a"] and uses == ["a"]


def test_if_condition_uses():
    a = analyze("int m(int c) { if (c == 1) c = 2; }")
    defs, uses = du_of(a, "c == 1")
    assert defs == [] and uses == ["c"]


def test_sets_are_deduplicated_in_first_occurrence_order():
    a = analyze("int m(int a, int b) { int x = a + a + b + a; }")
    defs, uses = du_of(a, "int x = a + a + b + a;")
    assert uses == ["a", "b"]
    assert defs == ["x"]


def test_shadowed_variables_are_distinct():
    a = analyze("int m(int a) { { int a = a + 1; a++; } a--; }")

    def raw(txt, table):
        nid = next(n.id for n in a.graph.nodes if n.txt == txt)
        return table.get(nid, [])

    param_id, local_id = a.graph.node(a.graph.method).vars
    assert raw("a++;", a.def_use.defs) == [local_id]
    assert raw("a--;", a.def_use.defs) == [param_id]
    # the initializer's `a` reads the parameter, not the new local
    assert raw("int a = a + 1;", a.def_use.uses) == [param_id]
    assert raw("int a = a + 1;", a.def_use.defs) == [local_id]


def assert_suffix_unary_in_def_and_use(source):
    """Every suffix `++`/`--` defines and uses its variable at its node.

    The suffix forms are found in the reference parser's tree, whose
    statements and conditions give the flow nodes in the same order.
    """
    a = analyze(source)

    def unary_vars(e):
        if isinstance(e, ref_parser.SuffixUnary):
            return [var_id[e.decl]]
        if isinstance(e, ref_parser.Assign):
            return unary_vars(e.value)
        if isinstance(e, ref_parser.Chain):
            out = []
            for child in e.children:
                out.extend(unary_vars(child))
            return out
        return []

    sources = images(ref_parser.parse_program(source))
    owned = a.graph.node(a.graph.method).vars
    var_id = {sources[vid]: vid for vid in owned}
    checked = 0
    for nid, ast_node in enumerate(sources):
        if nid in owned:
            continue
        expr = None
        if isinstance(ast_node, ref_parser.ExprStmt):
            expr = ast_node.expr
        elif isinstance(ast_node, ref_parser.LocalVarDecl):
            expr = ast_node.init
        elif isinstance(ast_node, ref_parser.Return):
            expr = ast_node.value
        elif isinstance(ast_node, ref_parser.Expression):
            expr = ast_node
        if expr is None:
            continue
        for var in unary_vars(expr):
            checked += 1
            assert var in a.def_use.def_of(nid)
            assert var in a.def_use.use_of(nid)
    assert checked == len(re.findall(r"\+\+|--", source))


@pytest.mark.parametrize("seed", range(25))
def test_suffix_unary_always_in_def_and_use(seed):
    assert_suffix_unary_in_def_and_use(progen.gen_program(seed + 700, strict=False, max_stmts=30))


def test_suffix_unary_nested_in_chains_and_return():
    assert_suffix_unary_in_def_and_use(
        "int m(int a, int b) {\n"
        "    int c = a++ + b-- * (a-- - b++);\n"
        "    while (c++ < a-- + 1) { b = a++ == c--; }\n"
        "    if (a + b++ > c) return a-- * (b++ / c--);\n"
        "    return (c++);\n"
        "}\n"
    )


@pytest.mark.parametrize("seed", range(25))
def test_def_use_reference_owned_vars_only(seed):
    source = progen.gen_program(seed + 800, strict=False, max_stmts=30)
    a = analyze(source)
    owned = set(a.graph.node(a.graph.method).vars)
    for table in (a.def_use.defs, a.def_use.uses):
        for nid, var_ids in table.items():
            assert a.graph.node(nid).kind in (
                NodeKind.METHOD, NodeKind.SIMPLE, NodeKind.RETURN, NodeKind.EXPR
            )
            assert set(var_ids) <= owned
            assert len(var_ids) == len(set(var_ids))
