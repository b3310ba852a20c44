"""Command-line driver.

    fg build    <file.mj>                 containment listing
    fg cfg      <file.mj> [--dot|--json]  control-flow edges
    fg dfg      <file.mj> [--dot|--json]  adds def/use and data-flow edges
    fg validate <file.mj> --spec <file.validate> [--emit] [--json]

Every command accepts `-` to read the program from stdin. Exit codes:
0 success (validate: clean report), 1 validation findings, 2 bad input.
Set FG_COLOR=1 to colorize validation findings.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .controlflow import flow_instructions
from .errors import FlowgraphsError
from .model import FlowGraph, sorted_pairs
from .pipeline import Analysis, analyze
from .validator import FINDINGS, check, emit_spec, parse_spec, quote

_RED = "\x1b[31m"
_RESET = "\x1b[0m"


def _read_input(path: str) -> str:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return text.removeprefix("\ufeff")  # the byte-order mark some editors write


def _emit_listing(graph: FlowGraph, nid: int, depth: int, lines: list[str]) -> None:
    # A module-level function, not a closure: a recursive closure is a
    # reference cycle, left for the cyclic collector to free.
    node = graph.node(nid)
    lines.append(f'{"  " * depth}{node.kind} "{node.txt}"')
    # Only a Method has vars and an exit; it lists them around its statements.
    for child in (*node.vars, node.expr, node.then, node.orelse, node.stmt, node.body,
                  *node.stmts, node.exit):
        if child is not None:
            _emit_listing(graph, child, depth + 1, lines)


def _dot_listing(graph: FlowGraph, cf_edges, df_edges) -> list[str]:
    # Node ids are labels with a #k occurrence suffix; ids and labels are
    # quoted as `.validate` labels are.
    ids: dict[int, str] = {}  # node -> its quoted DOT id
    counts: dict[str, int] = {}
    for nid in flow_instructions(graph):
        txt = graph.node(nid).txt
        k = counts.get(txt, 0)
        counts[txt] = k + 1
        ids[nid] = quote(f"{txt}#{k}")
    lines = ["digraph flowgraph {"]
    for nid, node_id in ids.items():
        lines.append(f"  {node_id} [label={quote(graph.node(nid).txt)}];")
    for a, b in cf_edges:
        lines.append(f"  {ids[a]} -> {ids[b]};")
    for a, b in df_edges:
        lines.append(f"  {ids[a]} -> {ids[b]} [style=dashed];")
    lines.append("}")
    return lines


# Containers go through one encoder; it has no cycle check, since edge
# lists and def/use tables hold only ints.
_encode = json.JSONEncoder(check_circular=False).encode


def _json_text(analysis: Analysis, with_df: bool) -> str:
    """The JSON document, as `json.dumps` writes it, without building it.

    Each node object is one f-string; `_value_` is the kind's plain string,
    read without the enum's `value` property.
    """
    json_str = encode_basestring_ascii
    nodes = ", ".join([f'{{"id": {n.id}, "kind": "{n.kind._value_}", "txt": {json_str(n.txt)}}}'
                       for n in analysis.graph.nodes])
    if not with_df:
        tail = '"dfNext": [], "def": {}, "use": {}'
    else:
        du = analysis.def_use
        tail = (f'"dfNext": {_encode(analysis.df.edges())}, '
                f'"def": {_encode({n: du.defs[n] for n in sorted(du.defs)})}, '
                f'"use": {_encode({n: du.uses[n] for n in sorted(du.uses)})}')
    return f'{{"nodes": [{nodes}], "cfNext": {_encode(analysis.cf.edges())}, {tail}}}'


def _print_warnings(analysis: Analysis) -> None:
    for warning in analysis.df.warnings:
        print(f"warning: {warning.message(analysis.graph)}", file=sys.stderr)


def _cmd_build(analysis: Analysis, args) -> int:
    lines: list[str] = []
    _emit_listing(analysis.graph, analysis.graph.method, 0, lines)
    print("\n".join(lines))
    return 0


def _cmd_graph(analysis: Analysis, args) -> int:
    """`fg cfg`, or `fg dfg`, which adds warnings, data flow and def/use sets."""
    graph = analysis.graph
    with_df = args.command == "dfg"
    if with_df:
        _print_warnings(analysis)
    if args.json:
        print(_json_text(analysis, with_df))
        return 0
    cf_edges = analysis.cf.edges()
    df_edges = analysis.df.edges() if with_df else []
    if args.dot:
        print("\n".join(_dot_listing(graph, cf_edges, df_edges)))
        return 0
    sections = [("", cf_edges)]
    if with_df:
        du = analysis.def_use
        sections = [("cfNext: ", cf_edges), ("dfNext: ", df_edges),
                    ("def: ", sorted_pairs(du.defs)), ("use: ", sorted_pairs(du.uses))]
    for name, pairs in sections:
        for a, b in pairs:
            print(f"{name}{graph.node(a).txt} --> {graph.node(b).txt}")
    return 0


def _cmd_validate(analysis: Analysis, args) -> int:
    if args.emit:
        sys.stdout.write(emit_spec(analysis.graph, analysis.cf, analysis.df))
        return 0
    spec = parse_spec(_read_input(args.spec))
    _print_warnings(analysis)
    report = check(spec, analysis.graph, analysis.cf, analysis.df)
    color = os.environ.get("FG_COLOR") == "1"
    for line in report.lines():
        print(f"{_RED}{line}{_RESET}" if color else line)
    if args.json:
        doc = {name: getattr(report, name) for name, _ in FINDINGS}
        doc["warnings"] = [w.message(analysis.graph) for w in analysis.df.warnings]
        print(json.dumps(doc))
    return 0 if report.clean else 1


@functools.cache  # built once per process; parse_args does not change it
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fg", description="Flow-graph analysis for mini-Java programs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, dot_json: bool = False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="input .mj program, or - for stdin")
        cmd.set_defaults(func=func)
        if dot_json:
            fmt = cmd.add_mutually_exclusive_group()
            fmt.add_argument("--dot", action="store_true", help="GraphViz output")
            fmt.add_argument("--json", action="store_true", help="JSON output")
        return cmd

    add("build", _cmd_build, "print the flow-graph containment structure")
    add("cfg", _cmd_graph, "print control-flow edges", dot_json=True)
    add("dfg", _cmd_graph, "print control-flow, def/use, and data-flow edges", dot_json=True)
    val = add("validate", _cmd_validate, "check a .validate specification")
    val.add_argument("--spec", help="specification file, or - for stdin")
    val.add_argument("--emit", action="store_true",
                     help="print a specification matching the graph instead of checking")
    val.add_argument("--json", action="store_true", help="also print the report as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "validate" and not args.emit and not args.spec:
        print("fg: error: validate requires --spec (or --emit)", file=sys.stderr)
        return 2
    if args.command == "validate" and args.file == "-" and args.spec == "-":
        print("fg: error: program and spec cannot both come from stdin", file=sys.stderr)
        return 2
    # One command builds its whole model and then drops it; the analysis
    # makes no reference cycles, so reference counting frees it all and the
    # cyclic collector would only walk live objects. Pause it for the
    # command and give the caller back the setting it had.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        analysis = analyze(_read_input(args.file))
        return args.func(analysis, args)
    except (FlowgraphsError, OSError, UnicodeDecodeError) as exc:
        print(f"fg: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("fg: error: program nesting is too deep to analyze", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
