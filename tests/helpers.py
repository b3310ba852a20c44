"""Shared plumbing for the test suite."""

from __future__ import annotations

import functools
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from flowgraphs import minijava as mj
from flowgraphs.cli import main as cli_main

import progen

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


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def images(method: mj.Method) -> list:
    """The AST node behind each flow-graph node, indexed by node id.

    Written independently of `model.lower`: the Method, None for the Exit,
    statements and loop/if conditions (`cond`: a label, or in a reference
    parser's tree an Expression) in pre-order, then the Params and
    LocalVarDecls that the variable nodes stand for, in declaration order.
    """
    out: list = [method, None]
    decls: list[mj.Node] = list(method.params)

    def walk(s: mj.Statement) -> None:
        out.append(s)
        if isinstance(s, (mj.While, mj.If)):
            out.append(s.cond)
        if isinstance(s, mj.While):
            walk(s.body)
        elif isinstance(s, mj.If):
            walk(s.then)
            if s.orelse is not None:
                walk(s.orelse)
        elif isinstance(s, mj.Labeled):
            walk(s.stmt)
        elif isinstance(s, mj.Block):
            for child in s.stmts:
                walk(child)
        elif isinstance(s, mj.LocalVarDecl):
            decls.append(s)

    for stmt in method.body:
        walk(stmt)
    return out + decls
