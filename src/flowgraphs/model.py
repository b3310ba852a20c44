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

from . import minijava as mj

EXIT_TEXT = "Exit"  # the Exit node has no AST node to take a label from


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


class FlowNode:
    # Containment links, populated per kind: stmts (Method, Block), expr (Loop,
    # If condition), body (Loop), then and orelse (If), stmt (Label), exit and
    # vars (Method); label is the jump label on Break/Continue, own name on Label.
    __slots__ = _fields = ("id", "kind", "txt", "stmts", "expr", "body", "then", "orelse",
                           "stmt", "exit", "vars", "label")
    __repr__ = mj.Node.__repr__  # every field, in constructor order

    def __init__(self, id: int, kind: NodeKind, txt: str, stmts: Sequence[int] = (),
                 expr: int | None = None, body: int | None = None, then: int | None = None,
                 orelse: int | None = None, stmt: int | None = None, exit: int | None = None,
                 vars: Sequence[int] = (), label: str | None = None) -> None:
        self.id = id
        self.kind = kind
        self.txt = txt
        self.stmts = stmts
        self.expr = expr
        self.body = body
        self.then = then
        self.orelse = orelse
        self.stmt = stmt
        self.exit = exit
        self.vars = vars
        self.label = label


class FlowGraph:
    def __init__(self, nodes: list[FlowNode] | None = None) -> None:
        self.nodes = [] if nodes is None else nodes
        self.method = 0  # the Method node's id

    def node(self, nid: int) -> FlowNode:
        return self.nodes[nid]

    @property
    def exit(self) -> int:
        return self.nodes[self.method].exit


class DefUseAttr:
    """Definition and use sets per flow instruction: node id -> variable node ids."""

    def __init__(self, defs: dict[int, list[int]] | None = None,
                 uses: dict[int, list[int]] | None = None) -> None:
        self.defs = {} if defs is None else defs
        self.uses = {} if uses is None else uses

    def def_of(self, nid: int) -> list[int]:
        return self.defs.get(nid, [])

    def use_of(self, nid: int) -> list[int]:
        return self.uses.get(nid, [])


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
    nodes: list[FlowNode] = []
    du = DefUseAttr()
    var_of = {p: i for i, p in enumerate(method.params)}  # declaration -> index

    root = FlowNode(0, NodeKind.METHOD, method.txt)
    nodes.append(root)
    nodes.append(FlowNode(1, NodeKind.EXIT, EXIT_TEXT))
    root.exit = 1
    if var_of:
        du.defs[0] = list(var_of.values())
    root.stmts = [_map_stmt(s, nodes, du, var_of) for s in method.body]
    base = len(nodes)
    root.vars = list(range(base, base + len(var_of)))
    for nid, decl in enumerate(var_of, base):
        nodes.append(FlowNode(nid, NodeKind.PARAM if type(decl) is mj.Param else NodeKind.VAR,
                              decl.name))
    for table in (du.defs, du.uses):
        for var_ids in table.values():
            var_ids[:] = [base + v for v in var_ids]
    return FlowGraph(nodes), du


def _sets_list(decls: tuple, var_of: dict) -> list[int]:
    """Variable indices of `decls`, duplicates dropped, first occurrence kept."""
    if len(decls) == 1:
        return [var_of[decls[0]]]
    return list(dict.fromkeys([var_of[d] for d in decls]))


def _add_sets(nid: int, s: mj.Statement, du: DefUseAttr, var_of: dict) -> None:
    if s.reads:
        du.uses[nid] = _sets_list(s.reads, var_of)
    if type(s) is mj.LocalVarDecl:  # a declaration defines its variable last
        du.defs[nid] = _sets_list(s.writes + (s,), var_of)
    elif s.writes:
        du.defs[nid] = _sets_list(s.writes, var_of)


def _map_condition(s: mj.While | mj.If, nodes: list[FlowNode], du: DefUseAttr,
                   var_of: dict) -> int:
    nid = len(nodes)
    nodes.append(FlowNode(nid, NodeKind.EXPR, s.cond.txt))
    _add_sets(nid, s, du, var_of)
    return nid


def _map_stmt(s: mj.Statement, nodes: list[FlowNode], du: DefUseAttr, var_of: dict) -> int:
    nid = len(nodes)
    t = type(s)
    if t is mj.LocalVarDecl or t is mj.ExprStmt:
        nodes.append(FlowNode(nid, NodeKind.SIMPLE, s.txt))
        if t is mj.LocalVarDecl:
            var_of[s] = len(var_of)
        _add_sets(nid, s, du, var_of)
    elif t is mj.While:
        node = FlowNode(nid, NodeKind.LOOP, s.txt)
        nodes.append(node)
        node.expr = _map_condition(s, nodes, du, var_of)
        node.body = _map_stmt(s.body, nodes, du, var_of)
    elif t is mj.If:
        node = FlowNode(nid, NodeKind.IF, s.txt)
        nodes.append(node)
        node.expr = _map_condition(s, nodes, du, var_of)
        node.then = _map_stmt(s.then, nodes, du, var_of)
        if s.orelse is not None:
            node.orelse = _map_stmt(s.orelse, nodes, du, var_of)
    elif t is mj.Block:
        node = FlowNode(nid, NodeKind.BLOCK, s.txt)
        nodes.append(node)
        node.stmts = [_map_stmt(child, nodes, du, var_of) for child in s.stmts]
    elif t is mj.Return:
        nodes.append(FlowNode(nid, NodeKind.RETURN, s.txt))
        _add_sets(nid, s, du, var_of)
    elif t is mj.Labeled:
        node = FlowNode(nid, NodeKind.LABEL, s.txt, label=s.name)
        nodes.append(node)
        node.stmt = _map_stmt(s.stmt, nodes, du, var_of)
    else:  # Break, Continue
        kind = NodeKind.BREAK if t is mj.Break else NodeKind.CONTINUE
        nodes.append(FlowNode(nid, kind, s.txt, label=s.label))
    return nid
