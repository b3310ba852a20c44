import functools
from collections import Counter

import pytest

from flowgraphs.minijava import parse_program
from flowgraphs.model import NodeKind
from flowgraphs.pipeline import analyze

import progen
from helpers import CORPUS, random_sources
from oracle import bfs_data_flow, brute_force_df_edges


def df_labels(analysis):
    graph = analysis.graph
    return [(graph.node(a).txt, graph.node(b).txt) for a, b in analysis.df.edges()]


def test_straight_line_edge():
    a = analyze("int m() { int a = 1; return a; }")
    assert df_labels(a) == [("int a = 1;", "return a;")]


def test_parameter_defined_at_method():
    a = analyze("int m(int a) { return a; }")
    assert df_labels(a) == [("m()", "return a;")]


def test_unary_in_loop_self_edge_and_back_edge():
    a = analyze("int m() { int i = 0; while (i < 10) { i++; } return i; }")
    labels = set(df_labels(a))
    assert ("i++;", "i++;") in labels  # self edge
    assert ("i++;", "i < 10") in labels  # definition reaching around the back edge
    assert labels == {
        ("int i = 0;", "i < 10"),
        ("int i = 0;", "i++;"),
        ("int i = 0;", "return i;"),
        ("i++;", "i < 10"),
        ("i++;", "i++;"),
        ("i++;", "return i;"),
    }


def test_diamond_takes_closest_definition_per_path():
    a = analyze("int m(int c) { int x = 1; if (c == 1) x = 2; return x; }")
    labels = set(df_labels(a))
    assert ("x = 2;", "return x;") in labels
    assert ("int x = 1;", "return x;") in labels


def test_intervening_definition_blocks_path():
    a = analyze("int m() { int x = 1; x = 2; return x; }")
    labels = set(df_labels(a))
    assert ("x = 2;", "return x;") in labels
    assert ("int x = 1;", "return x;") not in labels


def test_no_edges_from_nodes_without_defs():
    a = analyze("int m(int a) { int b = a; return b; }")
    for src, _ in a.df.edges():
        assert a.def_use.def_of(src)


def test_self_edge_iff_def_meets_use():
    # target written but not read: no self edge
    a = analyze("int m(int a, int b) { a = b + 1; }")
    assert ("a = b + 1;", "a = b + 1;") not in df_labels(a)
    # variable read in the value and written as target: self edge
    b = analyze("int m(int a) { a = a + 1; }")
    assert ("a = a + 1;", "a = a + 1;") in df_labels(b)
    c = analyze("int m(int a) { a++; }")
    assert ("a++;", "a++;") in df_labels(c)


def test_undefined_use_warning_on_dead_code():
    a = analyze("int m(int a) { return; int x = a; }")
    assert len(a.df.warnings) == 1
    warning = a.df.warnings[0]
    assert a.graph.node(warning.var).txt == "a"
    assert a.graph.node(warning.node).txt == "int x = a;"
    assert "no reaching definition" in warning.message(a.graph)


def test_dead_code_warns_past_its_block_leader():
    a = analyze("int m(int a) { return a; int y = 1; int x = a; }")
    assert [w.message(a.graph) for w in a.df.warnings] == [
        "no reaching definition for 'a' at 'int x = a;'"
    ]


def test_back_edge_reaches_definition_after_use_in_same_block():
    a = analyze("int m(int a) { while (a < 9) { int b = a; a = b + 1; } return a; }")
    assert ("a = b + 1;", "int b = a;") in df_labels(a)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_has_no_warnings(path):
    assert analyze(path.read_text()).df.warnings == []


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_oracle_equivalence_on_corpus(path):
    a = analyze(path.read_text())
    assert set(a.df.edges()) == brute_force_df_edges(a.graph, a.cf, a.def_use)


@pytest.mark.parametrize("seed", range(40))
def test_oracle_equivalence_on_random_programs(seed):
    source = progen.gen_program(seed + 4000, strict=False, max_stmts=25, max_instrs=22)
    a = analyze(source)
    assert set(a.df.edges()) == brute_force_df_edges(a.graph, a.cf, a.def_use)


def test_edge_table_is_deduplicated():
    # The tables add without a membership check: an if whose branches enter
    # the same instruction adds that edge once, and a definition that reaches
    # one use through two variables (`x = a = 1`) adds that edge once. No
    # table lists an id without targets, so an encoder may take every list
    # to have at least one.
    sources = [
        "int m(int c) { int x = 1; if (c == 1) c = 2; else c = 3; return x; }",
        "int m(int a) { if (a < 1) {} else {} }",
        "int m(int a) { if (a < 2) {} }",
        "int m(int a) { int x = a = 1; return x + a; }",
        *random_sources(),
        *(path.read_text() for path in CORPUS),
        *(build(200) for build in progen.SHAPES.values()),
    ]
    for source in sources:
        a = analyze(source)
        for table in (a.cf.cf_next, a.cf.cf_prev, a.def_use.defs, a.def_use.uses, a.df.df_next):
            for targets in table.values():
                assert targets and len(targets) == len(set(targets)), source


def block_vs_bfs(source):
    """(edges, df_next, warnings) from the block-level search, then from the node-level BFS."""
    a = analyze(source)
    ref = bfs_data_flow(a.graph, a.cf, a.def_use)
    return [(t.edges(), t.df_next, t.warnings) for t in (a.df, ref)]


@functools.cache
def jump_sources() -> tuple[str, ...]:
    """2,000 `progen.gen_jumps` programs of up to 60 statements."""
    return tuple(progen.gen_jumps(seed, max_stmts=10 + seed % 51) for seed in range(2000))


# Loose programs weigh more: else-less ifs, empty bodies and dead code are
# the shapes that split blocks. Up to 120 statements, beyond the brute-force
# oracle's 25 instructions.
@pytest.mark.parametrize("programs", [
    lambda: (progen.gen_program(seed + 9000, strict=False, max_stmts=10 + seed % 111)
             for seed in range(1500)),
    lambda: (progen.gen_program(seed + 9000, strict=True, max_stmts=10 + seed % 111)
             for seed in range(500)),
    jump_sources,
], ids=["loose", "strict", "jumps"])
def test_block_search_matches_bfs_on_random_programs(programs):
    bad = []
    for seed, source in enumerate(programs()):
        got, want = block_vs_bfs(source)
        if got != want:
            bad.append(seed)
    assert bad == []


def jump_features(source):
    """The features of `progen.gen_jumps` that `source` has, read from its flow graph."""
    nodes = parse_program(source)[0].nodes
    found = set()

    def walk(nid, loops, blocks, label=None):
        # loops: the labels of the enclosing loops, None if unlabeled; blocks: of labeled blocks
        node = nodes[nid]
        if node.kind is NodeKind.BLOCK:
            for stmt in node.stmts[:-1]:
                if nodes[stmt].kind in (NodeKind.RETURN, NodeKind.BREAK, NodeKind.CONTINUE):
                    found.add(f"dead code after {nodes[stmt].kind.value.lower()}")
            for stmt in node.stmts:
                walk(stmt, loops, blocks)
        elif node.kind is NodeKind.LABEL:
            if nodes[node.stmt].kind is NodeKind.BLOCK:
                walk(node.stmt, loops, blocks + [node.label])
            else:
                walk(node.stmt, loops, blocks, node.label)
        elif node.kind in (NodeKind.LOOP, NodeKind.IF):
            if "++" in nodes[node.expr].txt or "--" in nodes[node.expr].txt:
                found.add("++/-- in a condition")
            if node.kind is NodeKind.LOOP:
                walk(node.body, loops + [label], blocks)
            else:
                if node.orelse is not None and nodes[node.orelse].kind is NodeKind.IF:
                    found.add("else if")
                for branch in (node.then, node.orelse):
                    if branch is not None:
                        walk(branch, loops, blocks)
        elif node.kind is NodeKind.BREAK and node.label in blocks:
            found.add("break out of a labeled block")
        elif node.kind is NodeKind.CONTINUE and node.label in loops[:-1]:
            found.add("continue to an outer loop")

    for stmt in nodes[0].stmts:
        walk(stmt, [], [])
    return found


def test_jump_heavy_programs_have_every_feature():
    # Each feature in at least 50 of the programs the BFS check runs.
    counts = Counter(feature for source in jump_sources() for feature in jump_features(source))
    assert sorted(counts) == sorted([
        "else if", "break out of a labeled block", "continue to an outer loop",
        "dead code after return", "dead code after break", "dead code after continue",
        "++/-- in a condition"])
    assert min(counts.values()) >= 50, counts


LABELED_CONTINUE_INTO_DEAD_CODE = """
int m(int a) {
    int x = a;
    L: while (x < 9) {
        while (a > 0) {
            a--;
            continue L;
            x = a + 1;
            int y = x;
        }
        x++;
        continue L;
        a = x;
    }
    return x + a;
}
"""


@pytest.mark.parametrize("source", [
    pytest.param("int m(int a) { int x = a; int s = 0; " + "s = x; " * 3000 + "return s; }",
                 id="flat_fanout_3k_uses"),
    pytest.param("int m() { " + "".join(f"int v{i} = {i % 10}; " for i in range(2000))
                 + "return " + " + ".join(f"v{i}" for i in range(2000)) + "; }",
                 id="2k_vars_one_return"),
    pytest.param("int m(int c) { int x = 1; int y = 0; " + "if (c < 1) { y = c; } " * 300
                 + "return x; }", id="300_ifs_then_early_use"),
    pytest.param(LABELED_CONTINUE_INTO_DEAD_CODE, id="labeled_continue_into_dead_code"),
    *[pytest.param(build(200), id=f"{name}_200") for name, build in progen.SHAPES.items()],
])
def test_block_search_matches_bfs_on_built_shapes(source):
    got, want = block_vs_bfs(source)
    assert got == want
