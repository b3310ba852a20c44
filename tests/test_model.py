import pytest

from flowgraphs import minijava as mj
from flowgraphs.minijava import parse_program
from flowgraphs.model import EXIT_TEXT, NodeKind, lower

import progen
import ref_parser
import ref_walks
from helpers import CORPUS, images, random_sources


def build(source: str):
    method = parse_program(source)
    graph, du = lower(method)
    return method, graph, du


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
    loops = [n for n in graph.nodes if n.kind is NodeKind.LOOP]
    assert len(loops) == 1
    loop = loops[0]
    assert loop.txt == "while"
    assert graph.node(loop.expr).kind is NodeKind.EXPR
    assert graph.node(loop.expr).txt == "a < 3"
    assert graph.node(loop.body).txt == "a++;"


def test_plain_expressions_get_no_node():
    _, graph, _ = build("int m(int a) { a = a + 1; a++; }")
    assert [n for n in graph.nodes if n.kind is NodeKind.EXPR] == []


@pytest.mark.parametrize("seed", range(30))
def test_node_count_invariants(seed):
    source = progen.gen_program(seed + 900, strict=False, max_stmts=30)
    method = parse_program(source)
    graph, _ = lower(method)
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


KIND_OF = {
    mj.Method: NodeKind.METHOD,
    mj.LocalVarDecl: NodeKind.SIMPLE,
    mj.ExprStmt: NodeKind.SIMPLE,
    mj.While: NodeKind.LOOP,
    mj.If: NodeKind.IF,
    mj.Return: NodeKind.RETURN,
    mj.Break: NodeKind.BREAK,
    mj.Continue: NodeKind.CONTINUE,
    mj.Labeled: NodeKind.LABEL,
    mj.Block: NodeKind.BLOCK,
}


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_trace_roundtrip(path):
    # every node but the Exit is the image of exactly one AST node: node ids
    # follow the pre-order of the AST, and each node carries its source's label
    method = parse_program(path.read_text())
    graph, _ = lower(method)
    sources = images(method)
    assert len(sources) == len(graph.nodes)
    root = graph.node(graph.method)
    for node, ast_node in zip(graph.nodes, sources):
        if node.id == root.exit:
            assert ast_node is None and node.txt == EXIT_TEXT
        elif node.id in root.vars:
            assert isinstance(ast_node, (mj.Param, mj.LocalVarDecl))
            assert node.kind is (NodeKind.PARAM if isinstance(ast_node, mj.Param) else NodeKind.VAR)
            assert node.txt == ast_node.name
        elif isinstance(ast_node, str):  # a condition's label
            assert node.kind is NodeKind.EXPR and node.txt == ast_node
        else:
            assert node.kind is KIND_OF[type(ast_node)]
            assert node.txt == ast_node.txt


def test_block_order_preserved():
    method, graph, _ = build("int m(int a) { a = 1; a = 2; a = 3; }")
    root = graph.node(graph.method)
    texts = [graph.node(nid).txt for nid in root.stmts]
    assert texts == ["a = 1;", "a = 2;", "a = 3;"]


def test_collect_vars_params_and_order():
    method, graph, du = build("int m(int a, int b) { int x = 1; }")
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
    method, graph, _ = build("int m() { return; }")
    assert graph.node(graph.method).vars == []


def test_nested_declaration_attaches_to_method():
    method, graph, _ = build("int m() { { { int x = 1; } } }")
    root = graph.node(graph.method)
    assert [graph.node(v).txt for v in root.vars] == ["x"]


def test_shadowing_creates_distinct_var_nodes():
    method, graph, du = build("int m() { int x = 1; { int x = 2; } }")
    root = graph.node(graph.method)
    assert [graph.node(v).txt for v in root.vars] == ["x", "x"]
    outer, block = root.stmts
    inner = graph.node(block).stmts[0]
    assert du.def_of(outer) == [root.vars[0]]
    assert du.def_of(inner) == [root.vars[1]]


def assert_lower_matches_reference(source):
    """`lower` on the package's AST builds what the reference `lower` builds
    on the reference parser's tree, reduced to statements."""
    graph, du = lower(parse_program(source))
    want_graph, want_du = ref_walks.lower(ref_parser.parse_statements(source))
    assert graph.method == want_graph.method
    assert [repr(n) for n in graph.nodes] == [repr(n) for n in want_graph.nodes]
    assert list(du.defs.items()) == list(want_du.defs.items())
    assert list(du.uses.items()) == list(want_du.uses.items())


def test_lower_matches_reference_on_random_programs():
    for source in random_sources():
        assert_lower_matches_reference(source)


def test_lower_matches_reference_on_scale_program():
    assert_lower_matches_reference(progen.gen_scale(1, 2_000))
