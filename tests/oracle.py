"""Data-flow oracles, independent of the package's block-level search.

`brute_force_df_edges` enumerates every backward simple path over cfPrev
for every use; the first definition of the used variable along each path
contributes an edge. Exponential, so only for small graphs.

`bfs_data_flow` runs one breadth-first search over cfPrev per
(use, variable), one statement at a time, with no basic blocks. It costs
uses times def-use distance, so it checks programs far beyond the
brute-force limit, and it fills a `DfEdgeTable` so that target order and
warnings can be compared too.

`resolve` is the name binding the parser does, as a separate walk over a
parsed AST: the reference for the parser's `decl` links and for the
first name error it reports.

`tokenize` is the tokenizer the package had before its one-scan rewrite:
one regular-expression match per token and per blank run, checked from
the loop. It is the reference for the package's `tokenize`.

`text_of` and `expr_reads_writes` are the label and def/use walks over a
parsed AST that the package ran before the parser synthesized both: the
references for each node's stored `txt` and each statement's stored
`reads` and `writes`.
"""

from __future__ import annotations

import re
from collections import deque

from flowgraphs import minijava as mj
from flowgraphs.controlflow import EdgeTable, flow_instructions
from flowgraphs.dataflow import DfEdgeTable, UndefinedUseWarning
from flowgraphs.minijava import (
    Assign,
    Block,
    Break,
    Chain,
    Continue,
    Expression,
    ExprStmt,
    IdentRef,
    If,
    KEYWORDS,
    OP_TEXT,
    Labeled,
    LocalVarDecl,
    Method,
    MissingEnclosingLoopError,
    Node,
    ParseError,
    Pos,
    Return,
    Statement,
    SuffixUnary,
    Token,
    UnresolvedLabelError,
    UnresolvedVariableError,
    While,
)
from flowgraphs.model import DefUseAttr, FlowGraph


def brute_force_df_edges(graph: FlowGraph, cf: EdgeTable, du: DefUseAttr) -> set[tuple[int, int]]:
    instrs = flow_instructions(graph)
    defs = {n: set(du.def_of(n)) for n in instrs}
    prev = cf.cf_prev
    out: set[tuple[int, int]] = set()

    for u in instrs:
        uses = du.use_of(u)
        if not uses:
            continue
        for v in uses:
            if v in defs[u]:
                out.add((u, u))

        def walk(node: int, on_path: frozenset[int], unresolved: frozenset[int]) -> None:
            for p in prev.get(node, []):
                if p in on_path:
                    continue  # keep paths simple
                found = unresolved & defs[p]
                for _ in found:
                    out.add((p, u))
                remaining = unresolved - found
                if remaining:
                    walk(p, on_path | {p}, remaining)

        walk(u, frozenset({u}), frozenset(uses))
    return out


def bfs_data_flow(graph: FlowGraph, cf: EdgeTable, du: DefUseAttr) -> DfEdgeTable:
    table = DfEdgeTable()
    def_sets = {nid: set(du.def_of(nid)) for nid in du.defs}
    warned: set[tuple[int, int]] = set()

    def warn(var: int, node: int) -> None:
        if (var, node) not in warned:
            warned.add((var, node))
            table.warnings.append(UndefinedUseWarning(var, node))

    for u in flow_instructions(graph):
        for v in du.use_of(u):
            if v in def_sets.get(u, ()):
                table.add(u, u)
            preds = cf.cf_prev.get(u, [])
            if not preds and v not in def_sets.get(u, ()):
                warn(v, u)
            seen = {u}
            queue = deque(preds)
            while queue:
                p = queue.popleft()
                if p in seen:
                    continue
                seen.add(p)
                if v in def_sets.get(p, ()):
                    table.add(p, u)  # definitions end this path's search
                    continue
                nxt = cf.cf_prev.get(p, [])
                if not nxt:
                    warn(v, u)
                queue.extend(nxt)
    return table


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


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
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
        tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


def text_of(node: mj.Node) -> str:
    """Label for one node."""
    if isinstance(node, mj.Method):
        out = node.name + "()"
    elif isinstance(node, mj.LocalVarDecl):
        out = "int " + node.name + " = " + text_of(node.init) + ";"
    elif isinstance(node, mj.ExprStmt):
        out = text_of(node.expr) + ";"
    elif isinstance(node, mj.While):
        out = "while"
    elif isinstance(node, mj.If):
        out = "if"
    elif isinstance(node, mj.Return):
        out = "return;" if node.value is None else "return " + text_of(node.value) + ";"
    elif isinstance(node, mj.Break):
        out = "break"
    elif isinstance(node, mj.Continue):
        out = "continue"
    elif isinstance(node, mj.Labeled):
        out = node.name + ":"
    elif isinstance(node, mj.Block):
        out = "{...}"
    elif isinstance(node, mj.Assign):
        out = node.target + " = " + text_of(node.value)
    elif isinstance(node, mj.SuffixUnary):
        out = node.target + OP_TEXT[node.op]
    elif isinstance(node, mj.Chain):
        out = text_of(node.children[0])
        for op, child in zip(node.operators, node.children[1:]):
            out += OP_TEXT[op] + text_of(child)
    elif isinstance(node, mj.IdentRef):
        out = node.name
    elif isinstance(node, mj.IntLit):
        out = str(node.value)
    else:
        raise TypeError(f"no text rule for {type(node).__name__}")
    return out


def expr_reads_writes(
    e: mj.Expression, var_of: dict[mj.Node, int]
) -> tuple[list[int], list[int]]:
    """(reads, writes) of one expression, in occurrence order.

    Each occurrence counts as `var_of[occ.decl]`, the variable its bound
    declaration maps to.
    """
    if isinstance(e, mj.Assign):
        # Value writes (suffix forms) are kept; the target itself is not read.
        reads, writes = expr_reads_writes(e.value, var_of)
        return reads, writes + [var_of[e.decl]]
    if isinstance(e, mj.SuffixUnary):
        var = var_of[e.decl]
        return [var], [var]
    if isinstance(e, mj.Chain):
        reads: list[int] = []
        writes: list[int] = []
        for child in e.children:
            r, w = expr_reads_writes(child, var_of)
            reads.extend(r)
            writes.extend(w)
        return reads, writes
    if isinstance(e, mj.IdentRef):
        return [var_of[e.decl]], []
    if isinstance(e, mj.IntLit):
        return [], []
    raise TypeError(f"no def/use rule for {type(e).__name__}")
