"""Data-flow edges: closest reaching definition per backward path.

An edge d -> u exists when u uses a variable that d defines and some
backward control-flow path from u reaches d without crossing another
definition of that variable; an instruction that both defines and uses a
variable gets a self edge. A use warns when such a path ends at an
instruction without predecessors that does not define the variable.

The search runs over basic blocks: chains in which every instruction but
the leader has exactly one cfPrev, whose only cfNext it is. One pass in
creation order builds them and records each block's last definition of
every variable. In the same pass, a use whose variable was defined
earlier in its own block takes that definition at once (local value
numbering): a chain has one backward path. Every other use searches
predecessor blocks breadth-first and stops at blocks that define the
variable. Every predecessor of a leader ends its block, so a block is
crossed whole; the use's own block is re-entered only by a back edge,
where its last definition is the closest one. The cost is uses times
blocks crossed, not statements crossed.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import DefUseAttr, EdgeTable, FlowGraph, flow_instructions, sorted_pairs


class UndefinedUseWarning(NamedTuple):
    var: int  # variable node id
    node: int  # flow instruction using it

    def message(self, graph: FlowGraph) -> str:
        return (
            f"no reaching definition for '{graph.node(self.var).txt}'"
            f" at '{graph.node(self.node).txt}'"
        )


class DfEdgeTable:
    def __init__(self) -> None:
        self.df_next: dict[int, list[int]] = {}
        self.warnings: list[UndefinedUseWarning] = []

    def add(self, src: int, dst: int) -> None:
        # Callers add all of one use's edges together, and every one of them
        # ends at the use, so an edge already there is the last one added.
        targets = self.df_next.setdefault(src, [])
        if not targets or targets[-1] != dst:
            targets.append(dst)

    def edges(self) -> list[tuple[int, int]]:
        """(src, dst) pairs, sources ascending, targets in insertion order."""
        return sorted_pairs(self.df_next)


def compute_data_flow(graph: FlowGraph, cf: EdgeTable, du: DefUseAttr) -> DfEdgeTable:
    table = DfEdgeTable()
    block_of: dict[int, int] = {}  # flow instruction -> block index
    leaders: list[int] = []
    last_defs: list[dict[int, int]] = []  # per block: var -> its last definition there
    uses: list[tuple[int, int, int | None]] = []  # (node, var, definition earlier in its block)
    for u in flow_instructions(graph):
        prev = cf.cf_prev.get(u, ())
        if len(prev) == 1 and len(cf.cf_next[prev[0]]) == 1 and prev[0] in block_of:
            b = block_of[prev[0]]
        else:
            b = len(leaders)
            leaders.append(u)
            last_defs.append({})
        block_of[u] = b
        last_def = last_defs[b]
        for v in du.uses.get(u, ()):
            uses.append((u, v, last_def.get(v)))
        for v in du.defs.get(u, ()):
            last_def[v] = u
    preds = [[block_of[p] for p in cf.cf_prev.get(u, ())] for u in leaders]

    for u, v, local in uses:
        defines = v in du.defs.get(u, ())
        if defines:
            table.add(u, u)
        if local is not None:
            table.add(local, u)
            continue
        b = block_of[u]
        # the path up the block ends at its leader, an undefined end unless u
        # is the leader and defines v itself
        undefined = not preds[b] and (leaders[b] != u or not defines)
        seen: set[int] = set()
        queue = list(preds[b])
        for c in queue:  # breadth-first: the loop reaches what it appends
            if c in seen:
                continue
            seen.add(c)
            d = last_defs[c].get(v)
            if d is not None:
                table.add(d, u)  # definitions end this path's search
                continue
            undefined = undefined or not preds[c]
            queue.extend(preds[c])
        if undefined:
            table.warnings.append(UndefinedUseWarning(v, u))
    return table
