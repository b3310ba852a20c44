"""Reference walks: earlier or independent versions of the package's passes.

`resolve` is the name binding the parser does, as a separate walk over a
full tree from `ref_parser`: the reference for the declarations the
parser records and for the first name error it reports.

`tokenize` is the tokenizer the package had before its one-scan rewrite:
one regular-expression match per token and per blank run, checked from
the loop. It gives one `(kind, text, line, col)` tuple per token, and is
the reference for the package's `tokenize`.

`text_of` and `expr_reads_writes` are the label and def/use walks over a
full tree from `ref_parser` that the package ran before the parser
synthesized both: the references for each statement's stored `txt`,
`reads` and `writes` and each condition's label.

`lower` is the AST-to-model walk the package had before its parser built
the flow graph, run on a full tree from `ref_parser`: the reference for
the package's `parse_program`, node for node and set for set. It runs on
subclasses that keep `FlowGraph.new_node` and `DefUseAttr.add`, which
only it called. `render_graph` prints a flow graph back as source, as
the package's `render_method` printed its AST, so that parsing a graph's
text again can be checked to give the same graph.

`compute_cf_edges` is the control-flow walk the package ran over the flow
graph before its parser made the edges by backpatching: the reference
for the package's `EdgeTable`, cfNext list for list. It builds cfPrev
from cfNext afterwards, with sources in ascending id order, as the
parser does; the walk itself added them in its own visiting order.

`listing` is the containment listing `fg build` printed with one
recursive call per containment level, before it listed from an explicit
stack: the reference for that listing, at the depths it can still reach.

`json_doc` is the document `fg cfg --json` and `fg dfg --json` dumped with
`json.dumps` before the CLI wrote the same bytes directly: the reference
for that writer.

`tokenize_spec` is the `.validate` tokenizer that walked the text one
character at a time: the reference for the package's one-scan tokenizer.

They live apart from `oracle.py`, which the benchmark loads while it sets
up, so that their size costs the benchmark nothing.
"""

from __future__ import annotations

import re

from collections.abc import Callable, Sequence
from typing import NamedTuple

from flowgraphs.model import EXIT_TEXT, DefUseAttr, EdgeTable, FlowGraph, FlowNode, NodeKind
from flowgraphs.pipeline import Analysis
from flowgraphs.validator import ValidateSyntaxError

from ref_parser import (
    Assign,
    Block,
    Break,
    Chain,
    Continue,
    Expression,
    ExprStmt,
    IdentRef,
    If,
    IntLit,
    KEYWORDS,
    OP_TEXT,
    Labeled,
    LocalVarDecl,
    Method,
    MissingEnclosingLoopError,
    Node,
    Param,
    ParseError,
    Pos,
    Return,
    Statement,
    SuffixUnary,
    UnresolvedLabelError,
    UnresolvedVariableError,
    While,
)


def resolve(method: Method) -> dict[Node, Node]:
    """Bind identifier uses to their declarations.

    Returns a map from every IdentRef, Assign, and SuffixUnary node to the
    Param or LocalVarDecl that declares the referenced variable, using
    innermost-declaration-wins scoping. Raises UnresolvedVariableError or
    UnresolvedLabelError when a name cannot be bound, and
    MissingEnclosingLoopError for an unlabeled jump outside every loop or a
    `continue` whose label does not wrap a loop; the first one in source
    order is reported.
    """
    bindings: dict[Node, Node] = {}
    scopes: list[dict[str, Node]] = [{p.name: p for p in method.params}]
    labels: list[tuple[str, bool]] = []  # (name, wraps a While)
    loop_depth = 0

    def lookup(name: str, pos: Pos | None) -> Node:
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        where = pos or Pos(0, 0)
        raise UnresolvedVariableError(f"undeclared variable {name!r}", where.line, where.col)

    def walk_expr(e: Expression) -> None:
        if isinstance(e, Assign):
            walk_expr(e.value)
            bindings[e] = lookup(e.target, e.pos)
        elif isinstance(e, SuffixUnary):
            bindings[e] = lookup(e.target, e.pos)
        elif isinstance(e, Chain):
            for child in e.children:
                walk_expr(child)
        elif isinstance(e, IdentRef):
            bindings[e] = lookup(e.name, e.pos)

    def walk_stmt(s: Statement) -> None:
        nonlocal loop_depth
        if isinstance(s, LocalVarDecl):
            walk_expr(s.init)  # the declared name is not in scope in its own initializer
            scopes[-1][s.name] = s
        elif isinstance(s, ExprStmt):
            walk_expr(s.expr)
        elif isinstance(s, While):
            walk_expr(s.cond)
            scopes.append({})
            loop_depth += 1
            walk_stmt(s.body)
            loop_depth -= 1
            scopes.pop()
        elif isinstance(s, If):
            walk_expr(s.cond)
            for branch in (s.then, s.orelse):
                if branch is not None:
                    scopes.append({})
                    walk_stmt(branch)
                    scopes.pop()
        elif isinstance(s, Return):
            if s.value is not None:
                walk_expr(s.value)
        elif isinstance(s, (Break, Continue)):
            where = s.pos or Pos(0, 0)
            if s.label is None:
                if loop_depth == 0:
                    raise MissingEnclosingLoopError(
                        f"'{type(s).__name__.lower()}' has no enclosing loop",
                        where.line, where.col,
                    )
                return
            wraps_loop = next((w for name, w in reversed(labels) if name == s.label), None)
            if wraps_loop is None:
                raise UnresolvedLabelError(
                    f"no enclosing label {s.label!r}", where.line, where.col
                )
            if isinstance(s, Continue) and not wraps_loop:
                raise MissingEnclosingLoopError(
                    f"label {s.label!r} does not name a loop", where.line, where.col
                )
        elif isinstance(s, Labeled):
            labels.append((s.name, isinstance(s.stmt, While)))
            walk_stmt(s.stmt)
            labels.pop()
        elif isinstance(s, Block):
            scopes.append({})
            for child in s.stmts:
                walk_stmt(child)
            scopes.pop()

    for stmt in method.body:
        walk_stmt(stmt)
    return bindings


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<nl>\n)
    | (?P<comment>//[^\n]*)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>\+\+|--|==|[-+*/<>=(){};:,])
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[tuple]:
    tokens: list[tuple] = []
    line, line_start = 1, 0
    i = 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {source[i]!r}", line, i - line_start + 1)
        i = m.end()
        if m.lastgroup in ("ws", "comment"):
            continue
        if m.lastgroup == "nl":
            line += 1
            line_start = i
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if m.lastgroup == "num":
            kind = "num"
        elif m.lastgroup == "ident":
            kind = text if text in KEYWORDS else "ident"
        else:
            kind = text
        tokens.append((kind, text, line, col))
    tokens.append(("eof", "", line, len(source) - line_start + 1))
    return tokens


def text_of(node: Node) -> str:
    """Label for one node."""
    if isinstance(node, Method):
        out = node.name + "()"
    elif isinstance(node, LocalVarDecl):
        out = "int " + node.name + " = " + text_of(node.init) + ";"
    elif isinstance(node, ExprStmt):
        out = text_of(node.expr) + ";"
    elif isinstance(node, While):
        out = "while"
    elif isinstance(node, If):
        out = "if"
    elif isinstance(node, Return):
        out = "return;" if node.value is None else "return " + text_of(node.value) + ";"
    elif isinstance(node, Break):
        out = "break"
    elif isinstance(node, Continue):
        out = "continue"
    elif isinstance(node, Labeled):
        out = node.name + ":"
    elif isinstance(node, Block):
        out = "{...}"
    elif isinstance(node, Assign):
        out = node.target + " = " + text_of(node.value)
    elif isinstance(node, SuffixUnary):
        out = node.target + OP_TEXT[node.op]
    elif isinstance(node, Chain):
        out = text_of(node.children[0])
        for op, child in zip(node.operators, node.children[1:]):
            out += OP_TEXT[op] + text_of(child)
    elif isinstance(node, IdentRef):
        out = node.name
    elif isinstance(node, IntLit):
        out = str(node.value)
    else:
        raise TypeError(f"no text rule for {type(node).__name__}")
    return out


def expr_reads_writes(
    e: Expression, var_of: dict[Node, int]
) -> tuple[list[int], list[int]]:
    """(reads, writes) of one expression, in occurrence order.

    Each occurrence counts as `var_of[occ.decl]`, the variable its bound
    declaration maps to.
    """
    if isinstance(e, Assign):
        # Value writes (suffix forms) are kept; the target itself is not read.
        reads, writes = expr_reads_writes(e.value, var_of)
        return reads, writes + [var_of[e.decl]]
    if isinstance(e, SuffixUnary):
        var = var_of[e.decl]
        return [var], [var]
    if isinstance(e, Chain):
        reads: list[int] = []
        writes: list[int] = []
        for child in e.children:
            r, w = expr_reads_writes(child, var_of)
            reads.extend(r)
            writes.extend(w)
        return reads, writes
    if isinstance(e, IdentRef):
        return [var_of[e.decl]], []
    if isinstance(e, IntLit):
        return [], []
    raise TypeError(f"no def/use rule for {type(e).__name__}")


class _Graph(FlowGraph):
    def new_node(self, kind: NodeKind, txt: str, **links) -> FlowNode:
        node = FlowNode(len(self.nodes), kind, txt, **links)
        self.nodes.append(node)
        return node


class _DefUseAttr(DefUseAttr):
    def add(self, nid: int, reads: list[int], writes: list[int]) -> None:
        """Record a node's sets, duplicates dropped, first occurrence kept."""
        if reads:
            self.uses[nid] = list(dict.fromkeys(reads))
        if writes:
            self.defs[nid] = list(dict.fromkeys(writes))


_STMT_KIND = {
    LocalVarDecl: NodeKind.SIMPLE,
    ExprStmt: NodeKind.SIMPLE,
    Return: NodeKind.RETURN,
    Break: NodeKind.BREAK,
    Continue: NodeKind.CONTINUE,
}


def lower(method: Method) -> tuple[FlowGraph, DefUseAttr]:
    """Map the AST onto the flow-graph model and record def/use sets.

    One pre-order walk over the statements creates the Method plus its
    Exit, one node per statement, and an Expr node for each loop/if
    condition; expressions in any other position have no image. Every
    created node carries its source node's label, and a statement's reads
    and writes go to its own node, or to its condition's Expr node. Each
    Param and LocalVarDecl becomes a Param/Var node on the Method,
    whatever block declares it. Those come after every statement node, so
    the walk records def/use sets by declaration index and shifts them to
    node ids at the end.
    """
    graph = _Graph()
    du = _DefUseAttr()
    var_of = {p: i for i, p in enumerate(method.params)}  # declaration -> index

    root = graph.new_node(NodeKind.METHOD, method.txt)
    root.exit = graph.new_node(NodeKind.EXIT, EXIT_TEXT).id
    du.add(root.id, [], list(var_of.values()))
    root.stmts = [_map_stmt(s, graph, du, var_of) for s in method.body]
    base = len(graph.nodes)
    root.vars = []
    for decl in var_of:
        kind = NodeKind.PARAM if isinstance(decl, Param) else NodeKind.VAR
        root.vars.append(graph.new_node(kind, decl.name).id)
    for table in (du.defs, du.uses):
        for var_ids in table.values():
            var_ids[:] = [base + v for v in var_ids]
    return graph, du


def _add_sets(nid: int, s: Statement, du: DefUseAttr, var_of: dict) -> None:
    writes = [var_of[d] for d in s.writes]
    if isinstance(s, LocalVarDecl):
        writes.append(var_of[s])  # a declaration defines its variable last
    du.add(nid, [var_of[d] for d in s.reads], writes)


def _map_condition(s: While | If, graph: FlowGraph, du: DefUseAttr, var_of: dict) -> int:
    nid = graph.new_node(NodeKind.EXPR, s.cond.txt).id
    _add_sets(nid, s, du, var_of)
    return nid


def _map_stmt(s: Statement, graph: FlowGraph, du: DefUseAttr, var_of: dict) -> int:
    if isinstance(s, While):
        node = graph.new_node(NodeKind.LOOP, s.txt)
        node.expr = _map_condition(s, graph, du, var_of)
        node.body = _map_stmt(s.body, graph, du, var_of)
    elif isinstance(s, If):
        node = graph.new_node(NodeKind.IF, s.txt)
        node.expr = _map_condition(s, graph, du, var_of)
        node.then = _map_stmt(s.then, graph, du, var_of)
        if s.orelse is not None:
            node.orelse = _map_stmt(s.orelse, graph, du, var_of)
    elif isinstance(s, Labeled):
        node = graph.new_node(NodeKind.LABEL, s.txt, label=s.name)
        node.stmt = _map_stmt(s.stmt, graph, du, var_of)
    elif isinstance(s, Block):
        node = graph.new_node(NodeKind.BLOCK, s.txt)
        node.stmts = [_map_stmt(child, graph, du, var_of) for child in s.stmts]
    else:
        kind = _STMT_KIND[type(s)]
        jump = s.label if isinstance(s, (Break, Continue)) else None
        node = graph.new_node(kind, s.txt, label=jump)
        if isinstance(s, LocalVarDecl):
            var_of[s] = len(var_of)
        _add_sets(node.id, s, du, var_of)
    return node.id


class _EdgeTable(EdgeTable):
    def add(self, src: int, dst: int) -> None:
        self.cf_next.setdefault(src, []).append(dst)


def compute_cf_edges(graph: FlowGraph) -> EdgeTable:
    """The control-flow edges of `graph`, from one walk over its statements.

    `_lower(nid, cont)` visits every statement once. `cont` is the flow
    instruction control reaches after the statement completes normally;
    the walk adds the statement's outgoing edges and returns its entry,
    the flow instruction control reaches when the statement starts:

    - a block lowers its statements right to left, each one continuing at
      the next one's entry; an empty block's entry is `cont`;
    - a simple statement falls through to `cont`, a return goes to Exit;
    - a loop's condition goes to `cont`, then into the body, whose own
      continuation is the condition again; an if's condition goes to the
      then branch, then to the else branch or `cont`;
    - a label is entered at the statement it wraps.

    Loops and labels push a jump target `(label, break_to, continue_to)`
    while their body is lowered: a loop pushes `(None, cont, condition)`,
    a label `(name, cont, condition or None)`. A break or continue takes
    the innermost target whose label equals its own. The parser has
    already rejected jumps without a valid target, so the walk has no
    error path.
    """
    edges = _EdgeTable()
    root = graph.nodes[graph.method]
    walk = _Walk(graph.nodes, edges.add, root.exit, [])
    edges.add(root.id, _lower_seq(root.stmts, root.exit, walk))
    for src in sorted(edges.cf_next):
        for dst in edges.cf_next[src]:
            edges.cf_prev.setdefault(dst, []).append(src)
    return edges


class _Walk(NamedTuple):
    """The state `_lower` threads through the walk."""

    nodes: list[FlowNode]
    add: Callable[[int, int], None]  # _EdgeTable.add
    exit: int
    targets: list[tuple[str | None, int, int | None]]  # jump targets, innermost last


def _lower_seq(stmts: Sequence[int], cont: int, walk: _Walk) -> int:
    for nid in reversed(stmts):
        cont = _lower(nid, cont, walk)
    return cont


def _lower(nid: int, cont: int, walk: _Walk) -> int:
    node = walk.nodes[nid]
    kind = node.kind
    add = walk.add
    if kind is NodeKind.BLOCK:
        return _lower_seq(node.stmts, cont, walk)
    if kind is NodeKind.SIMPLE:
        add(nid, cont)
    elif kind is NodeKind.RETURN:
        add(nid, walk.exit)
    elif kind is NodeKind.LOOP:
        walk.targets.append((None, cont, node.expr))
        body = _lower(node.body, node.expr, walk)
        walk.targets.pop()
        add(node.expr, cont)
        add(node.expr, body)
        return node.expr
    elif kind is NodeKind.IF:
        then = _lower(node.then, cont, walk)
        orelse = cont if node.orelse is None else _lower(node.orelse, cont, walk)
        add(node.expr, then)
        if orelse != then:  # both are `cont` when neither branch has a flow instruction
            add(node.expr, orelse)
        return node.expr
    elif kind is NodeKind.LABEL:
        inner = walk.nodes[node.stmt]
        walk.targets.append((node.label, cont, inner.expr if inner.kind is NodeKind.LOOP else None))
        entry = _lower(node.stmt, cont, walk)
        walk.targets.pop()
        return entry
    else:  # Break, Continue
        _, break_to, continue_to = next(t for t in reversed(walk.targets) if t[0] == node.label)
        add(nid, break_to if kind is NodeKind.BREAK else continue_to)
    return nid


def render_graph(graph: FlowGraph) -> str:
    """Compose a flow graph back into parseable source text.

    Simple statements and returns are their labels, which are complete
    statements, and a jump is its label plus its target label;
    structured statements are rebuilt around their parts and their
    conditions' labels. A label drops grouping parentheses, and nothing
    in the graph depends on them, so parsing the text gives the graph
    again.
    """
    root = graph.node(graph.method)
    params = ", ".join("int " + graph.node(v).txt for v in root.vars
                       if graph.node(v).kind is NodeKind.PARAM)
    return ("int " + root.txt.removesuffix("()") + "(" + params + ") { "
            + " ".join(_render(graph, s) for s in root.stmts) + " }")


def _render(graph: FlowGraph, nid: int) -> str:
    node = graph.node(nid)
    kind = node.kind
    if kind is NodeKind.SIMPLE or kind is NodeKind.RETURN:
        return node.txt
    if kind is NodeKind.LOOP:
        return "while (" + graph.node(node.expr).txt + ") " + _render(graph, node.body)
    if kind is NodeKind.IF:
        out = "if (" + graph.node(node.expr).txt + ") " + _render(graph, node.then)
        return out if node.orelse is None else out + " else " + _render(graph, node.orelse)
    if kind is NodeKind.BLOCK:
        return "{ " + " ".join(_render(graph, s) for s in node.stmts) + " }"
    if kind is NodeKind.LABEL:
        return node.txt + " " + _render(graph, node.stmt)  # txt is "name:"
    if kind is NodeKind.BREAK or kind is NodeKind.CONTINUE:
        return node.txt + (" " + node.label if node.label else "") + ";"  # txt is the keyword
    raise TypeError(f"no source rule for {kind}")


def listing(graph: FlowGraph) -> str:
    """The `fg build` listing of `graph`, without the final newline."""
    lines: list[str] = []
    _emit_listing(graph, graph.method, 0, lines)
    return "\n".join(lines)


def _emit_listing(graph: FlowGraph, nid: int, depth: int, lines: list[str]) -> None:
    node = graph.node(nid)
    lines.append(f'{"  " * depth}{node.kind} "{node.txt}"')
    # Only a Method has vars and an exit; it lists them around its statements.
    for child in (*node.vars, node.expr, node.then, node.orelse, node.stmt, node.body,
                  *node.stmts, node.exit):
        if child is not None:
            _emit_listing(graph, child, depth + 1, lines)


def json_doc(analysis: Analysis, with_df: bool) -> dict:
    graph = analysis.graph
    doc = {
        "nodes": [{"id": n.id, "kind": n.kind.value, "txt": n.txt} for n in graph.nodes],
        "cfNext": analysis.cf.edges(),  # (src, dst) tuples dump as JSON arrays
        "dfNext": analysis.df.edges() if with_df else [],
        "def": {},
        "use": {},
    }
    if with_df:
        doc["def"] = {str(n): analysis.def_use.defs[n] for n in sorted(analysis.def_use.defs)}
        doc["use"] = {str(n): analysis.def_use.uses[n] for n in sorted(analysis.def_use.uses)}
    return doc


def _scan_string(text: str, i: int, line: int, col: int) -> tuple[str, int, int]:
    """Scan a double-quoted label starting at text[i] == '"'."""
    out = []
    j = i + 1
    c = col + 1
    while j < len(text):
        ch = text[j]
        if ch == '"':
            return "".join(out), j + 1, c + 1
        if ch == "\n":
            break
        if ch == "\\":
            if j + 1 < len(text) and text[j + 1] in ('"', "\\"):
                out.append(text[j + 1])
                j += 2
                c += 2
                continue
            raise ValidateSyntaxError("invalid escape in label", line, c)
        out.append(ch)
        j += 1
        c += 1
    raise ValidateSyntaxError("unterminated label string", line, col)


def tokenize_spec(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, value, line, col) tuples; kinds: ident, string, ':', '-->'."""
    tokens = []
    i, line, line_start = 0, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        col = i - line_start + 1
        if text.startswith("//", i):
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            value, j, _ = _scan_string(text, i, line, col)
            tokens.append(("string", value, line, col))
            i = j
            continue
        if text.startswith("-->", i):
            tokens.append(("-->", "-->", line, col))
            i += 3
            continue
        if ch == ":":
            tokens.append((":", ":", line, col))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            i = j
            continue
        raise ValidateSyntaxError(f"unexpected character {ch!r}", line, col)
    return tokens
