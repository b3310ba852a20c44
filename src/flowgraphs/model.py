"""The language-independent flow-graph model and the AST-to-model mapping.

The graph is an arena of nodes addressed by integer id; containment
links are id-valued fields on the nodes. Node creation order is the
pre-order of the mapping walk (method, exit, then statements, then the
variables), which all later listings and edge tables inherit, so output
is deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import minijava as mj
from .defuse import DefUseAttr, expr_reads_writes
from .textgen import EXIT_TEXT, text_of


class NodeKind(str, enum.Enum):
    METHOD = "Method"
    EXIT = "Exit"
    SIMPLE = "SimpleStmt"
    LOOP = "Loop"
    IF = "If"
    RETURN = "Return"
    BREAK = "Break"
    CONTINUE = "Continue"
    LABEL = "Label"
    BLOCK = "Block"
    EXPR = "Expr"
    VAR = "Var"
    PARAM = "Param"

    def __str__(self) -> str:  # NodeKind.LOOP prints as "Loop"
        return self.value


@dataclass(eq=False)
class FlowNode:
    id: int
    kind: NodeKind
    txt: str
    # containment links, populated per kind
    stmts: list[int] = field(default_factory=list)  # Method, Block
    expr: int | None = None  # Loop, If condition
    body: int | None = None  # Loop
    then: int | None = None  # If
    orelse: int | None = None  # If
    stmt: int | None = None  # Label
    exit: int | None = None  # Method
    vars: list[int] = field(default_factory=list)  # Method
    label: str | None = None  # jump label on Break/Continue, own name on Label


@dataclass
class FlowGraph:
    nodes: list[FlowNode] = field(default_factory=list)
    method: int = 0

    def new_node(self, kind: NodeKind, txt: str, **links) -> FlowNode:
        node = FlowNode(len(self.nodes), kind, txt, **links)
        self.nodes.append(node)
        return node

    def node(self, nid: int) -> FlowNode:
        return self.nodes[nid]

    @property
    def exit(self) -> int:
        return self.nodes[self.method].exit


_STMT_KIND = {
    mj.LocalVarDecl: NodeKind.SIMPLE,
    mj.ExprStmt: NodeKind.SIMPLE,
    mj.Return: NodeKind.RETURN,
    mj.Break: NodeKind.BREAK,
    mj.Continue: NodeKind.CONTINUE,
}


def lower(method: mj.Method) -> tuple[FlowGraph, DefUseAttr]:
    """Map the AST onto the flow-graph model and record def/use sets.

    One pre-order walk creates the Method plus its Exit, one node per
    statement, and an Expr node for each loop/if condition; expressions in
    any other position have no image. Every created node carries its
    source node's label. Each Param and LocalVarDecl becomes a Param/Var
    node on the Method, whatever block declares it. Those come after every
    statement node, so the walk records def/use sets by declaration index
    and shifts them to node ids at the end.
    """
    graph = FlowGraph()
    du = DefUseAttr()
    var_of = {p: i for i, p in enumerate(method.params)}  # declaration -> index

    root = graph.new_node(NodeKind.METHOD, text_of(method))
    root.exit = graph.new_node(NodeKind.EXIT, EXIT_TEXT).id
    du.add(root.id, [], list(var_of.values()))

    def map_condition(cond: mj.Expression) -> int:
        nid = graph.new_node(NodeKind.EXPR, text_of(cond)).id
        du.add(nid, *expr_reads_writes(cond, var_of))
        return nid

    def map_stmt(s: mj.Statement) -> int:
        if isinstance(s, mj.While):
            node = graph.new_node(NodeKind.LOOP, text_of(s))
            node.expr = map_condition(s.cond)
            node.body = map_stmt(s.body)
        elif isinstance(s, mj.If):
            node = graph.new_node(NodeKind.IF, text_of(s))
            node.expr = map_condition(s.cond)
            node.then = map_stmt(s.then)
            if s.orelse is not None:
                node.orelse = map_stmt(s.orelse)
        elif isinstance(s, mj.Labeled):
            node = graph.new_node(NodeKind.LABEL, text_of(s), label=s.name)
            node.stmt = map_stmt(s.stmt)
        elif isinstance(s, mj.Block):
            node = graph.new_node(NodeKind.BLOCK, text_of(s))
            node.stmts = [map_stmt(child) for child in s.stmts]
        else:
            kind = _STMT_KIND[type(s)]
            jump = s.label if isinstance(s, (mj.Break, mj.Continue)) else None
            node = graph.new_node(kind, text_of(s), label=jump)
            if isinstance(s, mj.LocalVarDecl):
                var_of[s] = len(var_of)
                reads, writes = expr_reads_writes(s.init, var_of)
                du.add(node.id, reads, writes + [var_of[s]])
            elif isinstance(s, mj.ExprStmt):
                du.add(node.id, *expr_reads_writes(s.expr, var_of))
            elif isinstance(s, mj.Return) and s.value is not None:
                # suffix forms in the value still count as definitions
                du.add(node.id, *expr_reads_writes(s.value, var_of))
        return node.id

    root.stmts = [map_stmt(s) for s in method.body]
    base = len(graph.nodes)
    for decl in var_of:
        kind = NodeKind.PARAM if isinstance(decl, mj.Param) else NodeKind.VAR
        root.vars.append(graph.new_node(kind, decl.name).id)
    for table in (du.defs, du.uses):
        for var_ids in table.values():
            var_ids[:] = [base + v for v in var_ids]
    return graph, du
