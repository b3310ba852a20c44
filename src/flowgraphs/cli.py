"""Command-line driver: `fg`, whose usage and notes are `_HELP`."""

from __future__ import annotations

import gc
import os
import sys

from .dataflow import DfEdgeTable
from .errors import FlowgraphsError
from .minijava import parse_program
from .model import DefUseAttr, FlowGraph, flow_instructions, sorted_pairs
from .pipeline import Analysis, analyze
from .validator import FINDINGS, check, emit_spec, parse_spec, quote

_RED = "\x1b[31m"
_RESET = "\x1b[0m"


def _read_input(path: str) -> str:
    """A file, or stdin for `-`, read as bytes and decoded as a text file
    is: UTF-8 whatever the locale's codec, with universal newlines and
    without the byte-order mark some editors write."""
    if path != "-":
        with open(path, "rb", buffering=0) as fh:
            data = fh.readall()
    elif sys.stdin is None:  # started with stdin closed
        raise OSError("stdin is closed")
    else:
        data = sys.stdin.buffer.read()
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removeprefix("\ufeff")


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


def _json_text(analysis: Analysis) -> str:
    """The JSON document, as `json.dumps` writes it, without the `json` module.

    Each node object is one f-string; `_value_` is the kind's plain string,
    read without the enum's `value` property. A label goes between quotes as
    it is: the parser builds labels only from ASCII identifiers, decimal
    integers, operators and fixed words, so no label needs an escape. An
    edge or a def/use list holds only ints, whose `str` is JSON.
    """
    nodes = analysis.graph.nodes
    node_list = ", ".join([f'{{"id": {n.id}, "kind": "{n.kind._value_}", "txt": "{n.txt}"}}'
                           for n in nodes])
    cf_edges = ", ".join([f"[{src}, {dst}]" for src, dst in analysis.cf.edges()])
    df_edges = ", ".join([f"[{src}, {dst}]" for src, dst in analysis.df.edges()])
    du = analysis.def_use
    return (f'{{"nodes": [{node_list}], "cfNext": [{cf_edges}], "dfNext": [{df_edges}], '
            f'"def": {{{_id_lists(du.defs)}}}, "use": {{{_id_lists(du.uses)}}}}}')


def _id_lists(table: dict[int, list[int]]) -> str:
    """The "id": [ids] members of an id -> [ids] table, ids ascending."""
    return ", ".join([f'"{nid}": {ids}' for nid, ids in sorted(table.items())])


def _print_warnings(analysis: Analysis) -> None:
    for warning in analysis.df.warnings:
        print(f"warning: {warning.message(analysis.graph)}", file=sys.stderr)


def _cmd_build(analysis: Analysis, command: str, opts: dict[str, str]) -> int:
    """The containment listing, from an explicit stack, so any depth lists."""
    graph = analysis.graph
    lines = []
    stack = [(graph.method, 0)]  # (node id, depth); the next node to list is last
    while stack:
        nid, depth = stack.pop()
        node = graph.node(nid)
        lines.append(f'{"  " * depth}{node.kind} "{node.txt}"')
        # Only a Method has vars and an exit; it lists them around its statements.
        children = (*node.vars, node.expr, node.then, node.orelse, node.stmt, node.body,
                    *node.stmts, node.exit)
        stack += [(child, depth + 1) for child in reversed(children) if child is not None]
    print("\n".join(lines))
    return 0


def _cmd_graph(analysis: Analysis, command: str, opts: dict[str, str]) -> int:
    """`fg dfg`, or `fg cfg`, to which `main` gives empty def/use and data-flow
    tables, so that it writes control flow alone, without `cfNext: ` as text."""
    graph = analysis.graph
    _print_warnings(analysis)
    if "--json" in opts:
        print(_json_text(analysis))
        return 0
    cf_edges, df_edges = analysis.cf.edges(), analysis.df.edges()
    if "--dot" in opts:
        print("\n".join(_dot_listing(graph, cf_edges, df_edges)))
        return 0
    du = analysis.def_use
    sections = [("cfNext: " if command == "dfg" else "", cf_edges), ("dfNext: ", df_edges),
                ("def: ", sorted_pairs(du.defs)), ("use: ", sorted_pairs(du.uses))]
    for name, pairs in sections:
        for a, b in pairs:
            print(f"{name}{graph.node(a).txt} --> {graph.node(b).txt}")
    return 0


def _cmd_validate(analysis: Analysis, command: str, opts: dict[str, str]) -> int:
    if "--emit" in opts:
        sys.stdout.write(emit_spec(analysis.graph, analysis.cf, analysis.df))
        return 0
    spec = parse_spec(_read_input(opts["--spec"]))
    _print_warnings(analysis)
    report = check(spec, analysis.graph, analysis.cf, analysis.df)
    color = os.environ.get("FG_COLOR") == "1"
    for line in report.lines():
        print(f"{_RED}{line}{_RESET}" if color else line)
    if "--json" in opts:
        import json

        doc = {name: getattr(report, name) for name, _ in FINDINGS}
        doc["warnings"] = [w.message(analysis.graph) for w in analysis.df.warnings]
        print(json.dumps(doc))
    return 0 if report.clean else 1


# command -> (handler, the flags it accepts); --spec is the one that takes a value
_COMMANDS = {
    "build": (_cmd_build, ()),
    "cfg": (_cmd_graph, ("--dot", "--json")),
    "dfg": (_cmd_graph, ("--dot", "--json")),
    "validate": (_cmd_validate, ("--spec", "--emit", "--json")),
}
# Flag -> the flags it may not be given with: one output format at a time,
# and `--emit` writes a spec instead of checking one or reporting as JSON.
_CONFLICTS = {"--dot": ("--json",), "--json": ("--dot", "--emit"),
              "--emit": ("--spec", "--json"), "--spec": ("--emit",)}
# The usage lines and the notes under them: a constant, since `python -OO`
# drops docstrings.
_HELP = """\
usage: fg build    <file.mj>                 containment listing
       fg cfg      <file.mj> [--dot|--json]  control-flow edges
       fg dfg      <file.mj> [--dot|--json]  adds def/use and data-flow edges
       fg validate <file.mj> --spec <file.validate> [--json]
       fg validate <file.mj> --emit          a specification the graph passes
       fg -h|--help

`-` reads the program, or the spec, from stdin. Options may come before or
after the file, and `--spec X` may be written `--spec=X`. Exit codes: 0
success (validate: clean report), 1 validation findings, 2 bad input or
usage, 141 output closed early. FG_COLOR=1 colorizes validation findings.
"""
_USAGE = _HELP.partition("\n\n")[0]  # the usage lines


class _UsageError(Exception):
    """A command line that `fg` rejects, worded as argparse words it."""


def _parse_args(argv: list[str]) -> tuple[str, str, dict[str, str]]:
    """(command, program path, {flag: its value, "" for a switch})."""
    if not argv:
        raise _UsageError("the following arguments are required: command")
    command, *rest = argv
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    accepted = _COMMANDS[command][1]
    path, opts, extra = None, {}, []
    args = iter(rest)
    for arg in args:
        flag, eq, value = arg.partition("=")
        if flag == "--spec" and flag in accepted:
            if not eq:
                value = next(args, "")
            if not value or not eq and value.startswith("-") and value != "-":
                raise _UsageError("argument --spec: expected one argument")
        elif arg in accepted:
            flag, value = arg, ""
        elif path is None and (arg == "-" or not arg.startswith("-")):
            path = arg
            continue
        else:
            extra.append(arg)
            continue
        clash = next((other for other in _CONFLICTS[flag] if other in opts), None)
        if clash is not None:
            raise _UsageError(f"argument {flag}: not allowed with argument {clash}")
        opts[flag] = value
    if path is None:
        raise _UsageError("the following arguments are required: file")
    if extra:
        raise _UsageError(f"unrecognized arguments: {' '.join(extra)}")
    spec = opts.get("--spec")
    if command == "validate" and not (spec or "--emit" in opts):
        raise _UsageError("validate requires --spec (or --emit)")
    if path == spec == "-":
        raise _UsageError("program and spec cannot both come from stdin")
    return command, path, opts


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if sys.stdout is None:  # started with stdout closed: nowhere to write
        print("fg: error: stdout is closed", file=sys.stderr)
        return 2
    if "-h" in argv or "--help" in argv:
        print(_HELP, end="")
        return 0
    try:
        command, path, opts = _parse_args(argv)
    except _UsageError as exc:
        print(_USAGE, f"fg: error: {exc}", sep="\n", file=sys.stderr)
        return 2
    # One command builds its whole model and then drops it; the analysis
    # makes no reference cycles, so reference counting frees it all and the
    # cyclic collector would only walk live objects. Pause it for the
    # command and give the caller back the setting it had.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if command in ("dfg", "validate"):
            analysis = analyze(_read_input(path))
        else:  # `build` and `cfg` print no data flow, so they stop at the parser
            graph, cf, _ = parse_program(_read_input(path))
            analysis = Analysis(graph, cf, DefUseAttr(), DfEdgeTable())
        code = _COMMANDS[command][0](analysis, command, opts)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed the output: stop quietly, with a shell's status for
        # SIGPIPE. What is still buffered goes to devnull, so the flush at exit passes.
        with open(os.devnull, "w") as devnull:
            try:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            except (OSError, ValueError):  # io.StringIO has no descriptor
                pass
        return 141
    except (FlowgraphsError, OSError, UnicodeDecodeError) as exc:
        print(f"fg: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
