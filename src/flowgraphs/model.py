"""The language-independent flow-graph model and the AST-to-model mapping.

The graph is an arena of nodes addressed by integer id; containment
links are id-valued fields on the nodes. Node creation order is the
pre-order of the mapping walk (method, exit, then statements), which all
later listings and edge tables inherit, so output is deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import minijava as mj
from .textgen import EXIT_TEXT


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
    method: int = 0  # owner-method backlink
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
        node = FlowNode(len(self.nodes), kind, txt, method=self.method, **links)
        self.nodes.append(node)
        return node

    def node(self, nid: int) -> FlowNode:
        return self.nodes[nid]

    @property
    def exit(self) -> int:
        return self.nodes[self.method].exit

    def by_kind(self, *kinds: NodeKind) -> list[FlowNode]:
        return [n for n in self.nodes if n.kind in kinds]


@dataclass
class TraceMap:
    """Bijection between mapped AST nodes and their flow-graph images."""

    to_node: dict[mj.Node, int] = field(default_factory=dict)
    to_ast: dict[int, mj.Node] = field(default_factory=dict)

    def link(self, ast_node: mj.Node, nid: int) -> None:
        self.to_node[ast_node] = nid
        self.to_ast[nid] = ast_node


_STMT_KIND = {
    mj.LocalVarDecl: NodeKind.SIMPLE,
    mj.ExprStmt: NodeKind.SIMPLE,
    mj.Return: NodeKind.RETURN,
    mj.Break: NodeKind.BREAK,
    mj.Continue: NodeKind.CONTINUE,
}


def build_flowgraph(method: mj.Method, text: dict[mj.Node, str]) -> tuple[FlowGraph, TraceMap]:
    """Map the AST onto the flow-graph model.

    One node per statement, one Method plus its Exit, and an Expr node for
    each loop/if condition. Expressions in any other position have no
    image. Every created node carries the source node's label.
    """
    graph = FlowGraph()
    trace = TraceMap()

    root = graph.new_node(NodeKind.METHOD, text[method])
    exit_node = graph.new_node(NodeKind.EXIT, EXIT_TEXT)
    root.exit = exit_node.id
    trace.link(method, root.id)

    def map_condition(cond: mj.Expression) -> int:
        node = graph.new_node(NodeKind.EXPR, text[cond])
        trace.link(cond, node.id)
        return node.id

    def map_stmt(s: mj.Statement) -> int:
        if isinstance(s, mj.While):
            node = graph.new_node(NodeKind.LOOP, text[s])
            trace.link(s, node.id)
            node.expr = map_condition(s.cond)
            node.body = map_stmt(s.body)
        elif isinstance(s, mj.If):
            node = graph.new_node(NodeKind.IF, text[s])
            trace.link(s, node.id)
            node.expr = map_condition(s.cond)
            node.then = map_stmt(s.then)
            if s.orelse is not None:
                node.orelse = map_stmt(s.orelse)
        elif isinstance(s, mj.Labeled):
            node = graph.new_node(NodeKind.LABEL, text[s], label=s.name)
            trace.link(s, node.id)
            node.stmt = map_stmt(s.stmt)
        elif isinstance(s, mj.Block):
            node = graph.new_node(NodeKind.BLOCK, text[s])
            trace.link(s, node.id)
            node.stmts = [map_stmt(child) for child in s.stmts]
        else:
            kind = _STMT_KIND[type(s)]
            jump = s.label if isinstance(s, (mj.Break, mj.Continue)) else None
            node = graph.new_node(kind, text[s], label=jump)
            trace.link(s, node.id)
        return node.id

    root.stmts = [map_stmt(s) for s in method.body]
    return graph, trace


def collect_vars(method: mj.Method, graph: FlowGraph, trace: TraceMap) -> dict[mj.Node, int]:
    """Create Param/Var declaration nodes on the owning Method.

    Returns the declaration map: each Param / LocalVarDecl AST node to the
    id of its variable node. Locals declared anywhere in the body attach
    to the method, not to their block.
    """
    root = graph.node(trace.to_node[method])
    var_map: dict[mj.Node, int] = {}
    for p in method.params:
        node = graph.new_node(NodeKind.PARAM, p.name)
        root.vars.append(node.id)
        var_map[p] = node.id

    def walk(s: mj.Statement) -> None:
        if isinstance(s, mj.LocalVarDecl):
            node = graph.new_node(NodeKind.VAR, s.name)
            root.vars.append(node.id)
            var_map[s] = node.id
        elif isinstance(s, mj.While):
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

    for stmt in method.body:
        walk(stmt)
    return var_map

