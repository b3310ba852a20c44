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


def sorted_pairs(table: dict[int, list[int]]) -> list[tuple[int, int]]:
    """The (src, dst) pairs of an id -> [ids] table, sources ascending, targets in order."""
    return [(src, dst) for src in sorted(table) for dst in table[src]]


def lower(method: mj.Method) -> tuple[FlowGraph, DefUseAttr]:
    """Map the AST onto the flow-graph model and record def/use sets.

    One pre-order walk over the statements creates the Method plus its
    Exit, one node per statement, and an Expr node for each loop/if
    condition; expressions in any other position have no image. Every
    created node carries its source node's label, and a statement's reads
    and writes go to its own node, or to its condition's Expr node. Each
    Param and LocalVarDecl becomes a Param/Var node on the Method,
    whatever block declares it. Those come after every statement node, so
    the walk records (node id, statement) pairs, and the def/use sets are
    built from them once the variables' ids are known.

    The walk is module-level functions that take their state as
    arguments, not closures: a recursive closure is a reference cycle,
    which would keep the graph alive until the cyclic collector runs.
    """
    nodes: list[FlowNode] = []
    # (node id, statement whose reads and writes it takes), for every simple
    # statement and condition
    owners: list[tuple[int, mj.Statement]] = []
    root = FlowNode(0, NodeKind.METHOD, method.txt)
    nodes.append(root)
    nodes.append(FlowNode(1, NodeKind.EXIT, EXIT_TEXT))
    root.exit = 1
    root.stmts = [_map_stmt(s, nodes, owners) for s in method.body]

    # Variable ids follow declaration order: the parameters, then each
    # LocalVarDecl in walk order, which is the order of `owners`.
    base = len(nodes)
    var_id = {p: nid for nid, p in enumerate(method.params, base)}
    du = DefUseAttr()
    if var_id:
        du.defs[0] = list(var_id.values())
    for nid, s in owners:
        if s.reads:
            du.uses[nid] = _ids(s.reads, var_id)
        if type(s) is mj.LocalVarDecl:  # a declaration defines its variable last
            var_id[s] = base + len(var_id)
            du.defs[nid] = _ids(s.writes + (s,), var_id)
        elif s.writes:
            du.defs[nid] = _ids(s.writes, var_id)
    root.vars = list(var_id.values())
    for decl, nid in var_id.items():
        nodes.append(FlowNode(nid, NodeKind.PARAM if type(decl) is mj.Param else NodeKind.VAR,
                              decl.name))
    return FlowGraph(nodes), du


def _ids(decls: tuple, var_id: dict) -> list[int]:
    """Variable node ids of `decls`, duplicates dropped, first occurrence kept."""
    if len(decls) == 1:
        return [var_id[decls[0]]]
    return list(dict.fromkeys([var_id[d] for d in decls]))


def _map_condition(s: mj.While | mj.If, nodes: list[FlowNode], owners: list) -> int:
    nid = len(nodes)
    nodes.append(FlowNode(nid, NodeKind.EXPR, s.cond))
    owners.append((nid, s))
    return nid


def _map_stmt(s: mj.Statement, nodes: list[FlowNode], owners: list) -> int:
    nid = len(nodes)
    t = type(s)
    if t is mj.LocalVarDecl or t is mj.ExprStmt:
        nodes.append(FlowNode(nid, NodeKind.SIMPLE, s.txt))
        owners.append((nid, s))
    elif t is mj.While:
        node = FlowNode(nid, NodeKind.LOOP, s.txt)
        nodes.append(node)
        node.expr = _map_condition(s, nodes, owners)
        node.body = _map_stmt(s.body, nodes, owners)
    elif t is mj.If:
        node = FlowNode(nid, NodeKind.IF, s.txt)
        nodes.append(node)
        node.expr = _map_condition(s, nodes, owners)
        node.then = _map_stmt(s.then, nodes, owners)
        if s.orelse is not None:
            node.orelse = _map_stmt(s.orelse, nodes, owners)
    elif t is mj.Block:
        node = FlowNode(nid, NodeKind.BLOCK, s.txt)
        nodes.append(node)
        node.stmts = [_map_stmt(child, nodes, owners) for child in s.stmts]
    elif t is mj.Return:
        nodes.append(FlowNode(nid, NodeKind.RETURN, s.txt))
        owners.append((nid, s))
    elif t is mj.Labeled:
        node = FlowNode(nid, NodeKind.LABEL, s.txt, label=s.name)
        nodes.append(node)
        node.stmt = _map_stmt(s.stmt, nodes, owners)
    else:  # Break, Continue
        kind = NodeKind.BREAK if t is mj.Break else NodeKind.CONTINUE
        nodes.append(FlowNode(nid, kind, s.txt, label=s.label))
    return nid
