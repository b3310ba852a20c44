import pytest

from flowgraphs import minijava as mj
from flowgraphs.minijava import parse_program
from flowgraphs.model import NodeKind, build_flowgraph, collect_vars
from flowgraphs.textgen import compute_text

import progen
from helpers import CORPUS


def build(source: str):
    method = parse_program(source)
    graph, trace = build_flowgraph(method, compute_text(method))
    return method, graph, trace


def kinds(graph):
    counts = {}
    for node in graph.nodes:
        counts[node.kind] = counts.get(node.kind, 0) + 1
    return counts


def test_minimal_mapping():
    _, graph, _ = build("int m() { return; }")
    count = kinds(graph)
    assert count == {NodeKind.METHOD: 1, NodeKind.EXIT: 1, NodeKind.RETURN: 1}
    root = graph.node(graph.method)
    assert root.txt == "m()"
    assert graph.node(root.exit).txt == "Exit"


def test_loop_mapping_with_condition_expr():
    _, graph, _ = build("int m(int a) { while (a < 3) a++; }")
    loops = graph.by_kind(NodeKind.LOOP)
    assert len(loops) == 1
    loop = loops[0]
    assert loop.txt == "while"
    assert graph.node(loop.expr).kind is NodeKind.EXPR
    assert graph.node(loop.expr).txt == "a < 3"
    assert graph.node(loop.body).txt == "a++;"


def test_plain_expressions_get_no_node():
    _, graph, _ = build("int m(int a) { a = a + 1; a++; }")
    assert graph.by_kind(NodeKind.EXPR) == []


@pytest.mark.parametrize("seed", range(30))
def test_node_count_invariants(seed):
    source = progen.gen_program(seed + 900, strict=False, max_stmts=30)
    method = parse_program(source)
    graph, _ = build_flowgraph(method, compute_text(method))
    count = kinds(graph)

    decls = exprs = whiles = ifs = 0

    def walk(s):
        nonlocal decls, exprs, whiles, ifs
        if isinstance(s, (mj.LocalVarDecl, mj.ExprStmt)):
            decls += isinstance(s, mj.LocalVarDecl)
            exprs += isinstance(s, mj.ExprStmt)
        elif isinstance(s, mj.While):
            whiles += 1
            walk(s.body)
        elif isinstance(s, mj.If):
            ifs += 1
            walk(s.then)
            if s.orelse is not None:
                walk(s.orelse)
        elif isinstance(s, mj.Labeled):
            walk(s.stmt)
        elif isinstance(s, mj.Block):
            for child in s.stmts:
                walk(child)

    for stmt in method.body:
        walk(stmt)

    assert count.get(NodeKind.SIMPLE, 0) == decls + exprs
    assert count.get(NodeKind.EXPR, 0) == whiles + ifs
    assert count[NodeKind.EXIT] == 1


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_trace_roundtrip(path):
    method = parse_program(path.read_text())
    graph, trace = build_flowgraph(method, compute_text(method))
    assert len(trace.to_node) == len(trace.to_ast)
    for ast_node, nid in trace.to_node.items():
        assert trace.to_ast[nid] is ast_node
    for nid, ast_node in trace.to_ast.items():
        assert trace.to_node[ast_node] == nid
    # every node except the Exit is the image of exactly one AST node
    mapped = set(trace.to_ast)
    expected = {n.id for n in graph.nodes if n.kind is not NodeKind.EXIT}
    assert mapped == expected


def test_block_order_preserved():
    method, graph, trace = build("int m(int a) { a = 1; a = 2; a = 3; }")
    root = graph.node(graph.method)
    texts = [graph.node(nid).txt for nid in root.stmts]
    assert texts == ["a = 1;", "a = 2;", "a = 3;"]


def test_collect_vars_params_and_order():
    method, graph, trace = build("int m(int a, int b) { int x = 1; }")
    var_map = collect_vars(method, graph, trace)
    root = graph.node(graph.method)
    names = [(graph.node(v).kind, graph.node(v).txt) for v in root.vars]
    assert names == [
        (NodeKind.PARAM, "a"),
        (NodeKind.PARAM, "b"),
        (NodeKind.VAR, "x"),
    ]
    assert var_map[method.params[0]] == root.vars[0]
    assert var_map[method.body[0]] == root.vars[2]


def test_collect_vars_empty():
    method, graph, trace = build("int m() { return; }")
    collect_vars(method, graph, trace)
    assert graph.node(graph.method).vars == []


def test_nested_declaration_attaches_to_method():
    method, graph, trace = build("int m() { { { int x = 1; } } }")
    collect_vars(method, graph, trace)
    root = graph.node(graph.method)
    assert [graph.node(v).txt for v in root.vars] == ["x"]


def test_shadowing_creates_distinct_var_nodes():
    method, graph, trace = build("int m() { int x = 1; { int x = 2; } }")
    var_map = collect_vars(method, graph, trace)
    root = graph.node(graph.method)
    assert [graph.node(v).txt for v in root.vars] == ["x", "x"]
    assert len(set(var_map.values())) == 2

