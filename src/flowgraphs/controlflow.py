"""Control-flow edges over the flow graph.

One walk, `_lower(nid, cont)`, visits every statement once. `cont` is the
flow instruction control reaches after the statement completes normally;
the walk adds the statement's outgoing edges and returns its entry, the
flow instruction control reaches when the statement starts:

- a block lowers its statements right to left, each one continuing at
  the next one's entry; an empty block's entry is `cont`;
- a simple statement falls through to `cont`, a return goes to Exit;
- a loop's condition goes to `cont`, then into the body, whose own
  continuation is the condition again; an if's condition goes to the
  then branch, then to the else branch or `cont`;
- a label is entered at the statement it wraps.

Loops and labels push a jump target `(label, break_to, continue_to)`
while their body is lowered: a loop pushes `(None, cont, condition)`, a
label `(name, cont, condition or None)`. A break or continue takes the
innermost target whose label equals its own, so an unlabeled jump only
ever matches a loop. The parser has already rejected jumps without a
valid target, so the walk has no error path.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import NamedTuple

from .model import FlowGraph, FlowNode, NodeKind, sorted_pairs

FLOW_INSTR_KINDS = frozenset({
    NodeKind.METHOD,
    NodeKind.EXIT,
    NodeKind.SIMPLE,
    NodeKind.EXPR,
    NodeKind.RETURN,
    NodeKind.BREAK,
    NodeKind.CONTINUE,
})


class EdgeTable:
    def __init__(self) -> None:
        self.cf_next: dict[int, list[int]] = {}
        self.cf_prev: dict[int, list[int]] = {}

    def add(self, src: int, dst: int) -> None:
        self.cf_next.setdefault(src, []).append(dst)
        self.cf_prev.setdefault(dst, []).append(src)

    def edges(self) -> list[tuple[int, int]]:
        """(src, dst) pairs, sources ascending, targets in insertion order."""
        return sorted_pairs(self.cf_next)


def flow_instructions(graph: FlowGraph) -> list[int]:
    """Ids of the nodes that carry flow edges, in creation order."""
    return [n.id for n in graph.nodes if n.kind in FLOW_INSTR_KINDS]


def compute_cf_edges(graph: FlowGraph) -> EdgeTable:
    edges = EdgeTable()
    root = graph.nodes[graph.method]
    walk = _Walk(graph.nodes, edges.add, root.exit, [])
    edges.add(root.id, _lower_seq(root.stmts, root.exit, walk))
    return edges


class _Walk(NamedTuple):
    """The state `_lower` threads through the walk.

    Passed as an argument rather than closed over: a recursive closure is
    a reference cycle, which would keep the graph alive until the cyclic
    collector runs.
    """

    nodes: list[FlowNode]
    add: Callable[[int, int], None]  # EdgeTable.add
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
