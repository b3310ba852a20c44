"""Shared plumbing for the test suite."""

from __future__ import annotations

import functools
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from flowgraphs.cli import main as cli_main
from flowgraphs.errors import FlowgraphsError
from flowgraphs.minijava import parse_program

import progen
import ref_parser
import ref_walks

TESTS_DIR = Path(__file__).parent
CORPUS_DIR = TESTS_DIR / "corpus"
GOLDEN_DIR = TESTS_DIR / "golden"

CORPUS = sorted(CORPUS_DIR.glob("*.mj"))


def run_cli(args: list[str], stdin_text: str | None = None) -> tuple[int, str, str]:
    """Run the fg CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        # Byte-backed, as a real stdin is, so `fg` reads it as it reads a file
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


@functools.cache
def random_sources() -> tuple[str, ...]:
    """The 1,000 cached `progen` programs; every fourth one is strict."""
    return tuple(progen.gen_program(seed, strict=seed % 4 == 0, max_stmts=10 + seed % 50)
                 for seed in range(1000))


@functools.cache
def jump_sources() -> tuple[str, ...]:
    """2,000 `progen.gen_jumps` programs of up to 60 statements."""
    return tuple(progen.gen_jumps(seed, max_stmts=10 + seed % 51) for seed in range(2000))


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def images(method: ref_parser.Method) -> list:
    """The reference parser's node behind each flow-graph node, indexed by node id.

    Written independently of `ref_walks.lower`: the Method, None for the
    Exit, statements and loop/if conditions (Expressions) in pre-order,
    then the Params and LocalVarDecls that the variable nodes stand for,
    in declaration order.
    """
    out: list = [method, None]
    decls: list[ref_parser.Node] = list(method.params)

    def walk(s: ref_parser.Statement) -> None:
        out.append(s)
        if isinstance(s, (ref_parser.While, ref_parser.If)):
            out.append(s.cond)
        if isinstance(s, ref_parser.While):
            walk(s.body)
        elif isinstance(s, ref_parser.If):
            walk(s.then)
            if s.orelse is not None:
                walk(s.orelse)
        elif isinstance(s, ref_parser.Labeled):
            walk(s.stmt)
        elif isinstance(s, ref_parser.Block):
            for child in s.stmts:
                walk(child)
        elif isinstance(s, ref_parser.LocalVarDecl):
            decls.append(s)

    for stmt in method.body:
        walk(stmt)
    return out + decls


def first_statement(source: str, *path: str):
    """The graph of `source`, its def/use sets, and the node of its first
    statement, or the node that the link fields in `path` lead to from it."""
    graph, _, du = parse_program(source)
    node = graph.node(graph.node(graph.method).stmts[0])
    for link in path:
        node = graph.node(getattr(node, link))
    return graph, du, node


def graph_of(build, source: str):
    """What `build(source)`, a (FlowGraph, EdgeTable, DefUseAttr) triple,
    makes of `source`: the error's class, message, line and column, or the
    repr of every node, the def and use tables in insertion order, and the
    cfNext and cfPrev tables, each list in order."""
    try:
        graph, cf, du = build(source)
    except FlowgraphsError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return ([repr(node) for node in graph.nodes], list(du.defs.items()), list(du.uses.items()),
            cf.cf_next, cf.cf_prev)


def reference_graph(source: str):
    """`ref_walks.lower` of the reference parser's tree for `source`, and
    `ref_walks.compute_cf_edges` of that graph."""
    graph, du = ref_walks.lower(ref_parser.parse_program(source))
    return graph, ref_walks.compute_cf_edges(graph), du


def assert_matches_reference(source: str) -> None:
    """The package's parser builds what the reference parser, `lower` and
    the reference control-flow walk build."""
    assert graph_of(parse_program, source) == graph_of(reference_graph, source)
