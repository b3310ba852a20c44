"""The language-independent flow-graph model.

The graph is an arena of nodes addressed by integer id; containment
links are id-valued fields on the nodes. `minijava.parse_program` builds
it, and node ids follow parse order (method, exit, then statements in
pre-order, each `while` or `if` followed by its condition, then the
variables), which all later listings and edge tables inherit, so output
is deterministic. Beside the graph the parser fills two tables over its
flow instructions: the control-flow edges, in an `EdgeTable`, and the
definition and use sets, in a `DefUseAttr`.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

EXIT_TEXT = "Exit"  # the Exit node has no source text to take a label from


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
    __slots__ = ("id", "kind", "txt", "stmts", "expr", "body", "then", "orelse", "stmt", "exit",
                 "vars", "label")

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

    def __repr__(self) -> str:  # every field, in constructor order
        return ("FlowNode(" + ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
                + ")")


class FlowGraph:
    def __init__(self, nodes: list[FlowNode] | None = None) -> None:
        self.nodes = [] if nodes is None else nodes
        self.method = 0  # the Method node's id

    def node(self, nid: int) -> FlowNode:
        return self.nodes[nid]

    @property
    def exit(self) -> int:
        return self.nodes[self.method].exit


FLOW_INSTR_KINDS = frozenset({
    NodeKind.METHOD,
    NodeKind.EXIT,
    NodeKind.SIMPLE,
    NodeKind.EXPR,
    NodeKind.RETURN,
    NodeKind.BREAK,
    NodeKind.CONTINUE,
})


def flow_instructions(graph: FlowGraph) -> list[int]:
    """Ids of the nodes that carry flow edges, in creation order."""
    return [n.id for n in graph.nodes if n.kind in FLOW_INSTR_KINDS]


class EdgeTable:
    """Control-flow edges: node id -> its cfNext targets, and -> its cfPrev sources."""

    def __init__(self, cf_next: dict[int, list[int]] | None = None,
                 cf_prev: dict[int, list[int]] | None = None) -> None:
        self.cf_next = {} if cf_next is None else cf_next
        self.cf_prev = {} if cf_prev is None else cf_prev

    def edges(self) -> list[tuple[int, int]]:
        """(src, dst) pairs, sources ascending, targets in insertion order."""
        return sorted_pairs(self.cf_next)


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
