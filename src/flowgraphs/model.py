"""The language-independent flow-graph model and the AST-to-model mapping.

The graph is an arena of nodes addressed by integer id; containment
links are id-valued fields on the nodes. Node creation order is the
pre-order of the mapping walk (method, exit, then statements, then the
variables), which all later listings and edge tables inherit, so output
is deterministic. Definition and use sets per flow instruction are kept
beside the graph, in a `DefUseAttr`.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
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


@dataclass(eq=False, slots=True)
class FlowNode:
    id: int
    kind: NodeKind
    txt: str
    # containment links, populated per kind
    stmts: Sequence[int] = ()  # Method, Block
    expr: int | None = None  # Loop, If condition
    body: int | None = None  # Loop
    then: int | None = None  # If
    orelse: int | None = None  # If
    stmt: int | None = None  # Label
    exit: int | None = None  # Method
    vars: Sequence[int] = ()  # Method
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


@dataclass
class DefUseAttr:
    """Definition and use sets per flow instruction: node id -> variable node ids."""

    defs: dict[int, list[int]] = field(default_factory=dict)
    uses: dict[int, list[int]] = field(default_factory=dict)

    def def_of(self, nid: int) -> list[int]:
        return self.defs.get(nid, [])

    def use_of(self, nid: int) -> list[int]:
        return self.uses.get(nid, [])

    def add(self, nid: int, reads: list[int], writes: list[int]) -> None:
        """Record a node's sets, duplicates dropped, first occurrence kept."""
        if reads:
            self.uses[nid] = list(dict.fromkeys(reads))
        if writes:
            self.defs[nid] = list(dict.fromkeys(writes))


_STMT_KIND = {
    mj.LocalVarDecl: NodeKind.SIMPLE,
    mj.ExprStmt: NodeKind.SIMPLE,
    mj.Return: NodeKind.RETURN,
    mj.Break: NodeKind.BREAK,
    mj.Continue: NodeKind.CONTINUE,
}


def lower(method: mj.Method) -> tuple[FlowGraph, DefUseAttr]:
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

    The walk is module-level functions that take their state as
    arguments, not closures: a recursive closure is a reference cycle,
    which would keep the graph alive until the cyclic collector runs.
    """
    graph = FlowGraph()
    du = DefUseAttr()
    var_of = {p: i for i, p in enumerate(method.params)}  # declaration -> index

    root = graph.new_node(NodeKind.METHOD, method.txt)
    root.exit = graph.new_node(NodeKind.EXIT, EXIT_TEXT).id
    du.add(root.id, [], list(var_of.values()))
    root.stmts = [_map_stmt(s, graph, du, var_of) for s in method.body]
    base = len(graph.nodes)
    root.vars = []
    for decl in var_of:
        kind = NodeKind.PARAM if isinstance(decl, mj.Param) else NodeKind.VAR
        root.vars.append(graph.new_node(kind, decl.name).id)
    for table in (du.defs, du.uses):
        for var_ids in table.values():
            var_ids[:] = [base + v for v in var_ids]
    return graph, du


def _add_sets(nid: int, s: mj.Statement, du: DefUseAttr, var_of: dict) -> None:
    writes = [var_of[d] for d in s.writes]
    if isinstance(s, mj.LocalVarDecl):
        writes.append(var_of[s])  # a declaration defines its variable last
    du.add(nid, [var_of[d] for d in s.reads], writes)


def _map_condition(s: mj.While | mj.If, graph: FlowGraph, du: DefUseAttr, var_of: dict) -> int:
    nid = graph.new_node(NodeKind.EXPR, s.cond.txt).id
    _add_sets(nid, s, du, var_of)
    return nid


def _map_stmt(s: mj.Statement, graph: FlowGraph, du: DefUseAttr, var_of: dict) -> int:
    if isinstance(s, mj.While):
        node = graph.new_node(NodeKind.LOOP, s.txt)
        node.expr = _map_condition(s, graph, du, var_of)
        node.body = _map_stmt(s.body, graph, du, var_of)
    elif isinstance(s, mj.If):
        node = graph.new_node(NodeKind.IF, s.txt)
        node.expr = _map_condition(s, graph, du, var_of)
        node.then = _map_stmt(s.then, graph, du, var_of)
        if s.orelse is not None:
            node.orelse = _map_stmt(s.orelse, graph, du, var_of)
    elif isinstance(s, mj.Labeled):
        node = graph.new_node(NodeKind.LABEL, s.txt, label=s.name)
        node.stmt = _map_stmt(s.stmt, graph, du, var_of)
    elif isinstance(s, mj.Block):
        node = graph.new_node(NodeKind.BLOCK, s.txt)
        node.stmts = [_map_stmt(child, graph, du, var_of) for child in s.stmts]
    else:
        kind = _STMT_KIND[type(s)]
        jump = s.label if isinstance(s, (mj.Break, mj.Continue)) else None
        node = graph.new_node(kind, s.txt, label=jump)
        if isinstance(s, mj.LocalVarDecl):
            var_of[s] = len(var_of)
        _add_sets(node.id, s, du, var_of)
    return node.id
