"""The flow graph `parse_program` builds: its nodes, their order, labels and variables."""

import pytest

from flowgraphs.minijava import parse_program
from flowgraphs.model import EXIT_TEXT, NodeKind

import progen
import ref_parser as ref
from helpers import CORPUS, assert_matches_reference, images


def kinds(graph):
    counts = {}
    for node in graph.nodes:
        counts[node.kind] = counts.get(node.kind, 0) + 1
    return counts


def test_minimal_mapping():
    graph, _, _ = parse_program("int m() { return; }")
    count = kinds(graph)
    assert count == {NodeKind.METHOD: 1, NodeKind.EXIT: 1, NodeKind.RETURN: 1}
    root = graph.node(graph.method)
    assert root.txt == "m()"
    assert graph.node(root.exit).txt == "Exit"


def test_loop_mapping_with_condition_expr():
    graph, _, _ = parse_program("int m(int a) { while (a < 3) a++; }")
    loops = [n for n in graph.nodes if n.kind is NodeKind.LOOP]
    assert len(loops) == 1
    loop = loops[0]
    assert loop.txt == "while"
    assert graph.node(loop.expr).kind is NodeKind.EXPR
    assert graph.node(loop.expr).txt == "a < 3"
    assert graph.node(loop.body).txt == "a++;"


def test_plain_expressions_get_no_node():
    graph, _, _ = parse_program("int m(int a) { a = a + 1; a++; }")
    assert [n for n in graph.nodes if n.kind is NodeKind.EXPR] == []


@pytest.mark.parametrize("seed", range(30))
def test_node_count_invariants(seed):
    source = progen.gen_program(seed + 900, strict=False, max_stmts=30)
    graph, _, _ = parse_program(source)
    count = kinds(graph)

    decls = exprs = whiles = ifs = 0

    def walk(s):
        nonlocal decls, exprs, whiles, ifs
        if isinstance(s, (ref.LocalVarDecl, ref.ExprStmt)):
            decls += isinstance(s, ref.LocalVarDecl)
            exprs += isinstance(s, ref.ExprStmt)
        elif isinstance(s, ref.While):
            whiles += 1
            walk(s.body)
        elif isinstance(s, ref.If):
            ifs += 1
            walk(s.then)
            if s.orelse is not None:
                walk(s.orelse)
        elif isinstance(s, ref.Labeled):
            walk(s.stmt)
        elif isinstance(s, ref.Block):
            for child in s.stmts:
                walk(child)

    for stmt in ref.parse_program(source).body:
        walk(stmt)

    assert count.get(NodeKind.SIMPLE, 0) == decls + exprs
    assert count.get(NodeKind.EXPR, 0) == whiles + ifs
    assert count[NodeKind.EXIT] == 1


KIND_OF = {
    ref.Method: NodeKind.METHOD,
    ref.LocalVarDecl: NodeKind.SIMPLE,
    ref.ExprStmt: NodeKind.SIMPLE,
    ref.While: NodeKind.LOOP,
    ref.If: NodeKind.IF,
    ref.Return: NodeKind.RETURN,
    ref.Break: NodeKind.BREAK,
    ref.Continue: NodeKind.CONTINUE,
    ref.Labeled: NodeKind.LABEL,
    ref.Block: NodeKind.BLOCK,
}


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_trace_roundtrip(path):
    # every node but the Exit is the image of exactly one node of the
    # reference parser's tree: node ids follow the pre-order of the tree's
    # statements, and each node carries its source's label
    graph, _, _ = parse_program(path.read_text())
    sources = images(ref.parse_program(path.read_text()))
    assert len(sources) == len(graph.nodes)
    root = graph.node(graph.method)
    for node, ast_node in zip(graph.nodes, sources):
        if node.id == root.exit:
            assert ast_node is None and node.txt == EXIT_TEXT
        elif node.id in root.vars:
            assert isinstance(ast_node, (ref.Param, ref.LocalVarDecl))
            assert node.kind is (NodeKind.PARAM if isinstance(ast_node, ref.Param) else NodeKind.VAR)
            assert node.txt == ast_node.name
        elif isinstance(ast_node, ref.Expression):  # a condition
            assert node.kind is NodeKind.EXPR and node.txt == ast_node.txt
        else:
            assert node.kind is KIND_OF[type(ast_node)]
            assert node.txt == ast_node.txt


def test_block_order_preserved():
    graph, _, _ = parse_program("int m(int a) { a = 1; a = 2; a = 3; }")
    root = graph.node(graph.method)
    texts = [graph.node(nid).txt for nid in root.stmts]
    assert texts == ["a = 1;", "a = 2;", "a = 3;"]


def test_collect_vars_params_and_order():
    graph, _, du = parse_program("int m(int a, int b) { int x = 1; }")
    root = graph.node(graph.method)
    names = [(graph.node(v).kind, graph.node(v).txt) for v in root.vars]
    assert names == [
        (NodeKind.PARAM, "a"),
        (NodeKind.PARAM, "b"),
        (NodeKind.VAR, "x"),
    ]
    assert du.def_of(root.id) == root.vars[:2]
    assert du.def_of(root.stmts[0]) == [root.vars[2]]


def test_collect_vars_empty():
    graph, _, _ = parse_program("int m() { return; }")
    assert graph.node(graph.method).vars == []


def test_nested_declaration_attaches_to_method():
    graph, _, _ = parse_program("int m() { { { int x = 1; } } }")
    root = graph.node(graph.method)
    assert [graph.node(v).txt for v in root.vars] == ["x"]


def test_shadowing_creates_distinct_var_nodes():
    graph, _, du = parse_program("int m() { int x = 1; { int x = 2; } }")
    root = graph.node(graph.method)
    assert [graph.node(v).txt for v in root.vars] == ["x", "x"]
    outer, block = root.stmts
    inner = graph.node(block).stmts[0]
    assert du.def_of(outer) == [root.vars[0]]
    assert du.def_of(inner) == [root.vars[1]]


# The graph against `ref_walks.lower` of the reference parser's tree, on
# programs that test_minijava's comparisons do not use.

def test_lower_matches_reference_on_random_programs():
    for seed in range(1000, 1500):
        assert_matches_reference(progen.gen_program(seed, strict=seed % 4 == 0,
                                                    max_stmts=10 + seed % 50))


def test_lower_matches_reference_on_scale_program():
    assert_matches_reference(progen.gen_scale(4, 3_000))
