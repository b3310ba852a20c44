"""Data-flow oracles, independent of the package's block-level search.

`brute_force_df_edges` enumerates every backward simple path over cfPrev
for every use; the first definition of the used variable along each path
contributes an edge. Exponential, so only for small graphs.

`bfs_data_flow` runs one breadth-first search over cfPrev per
(use, variable), one statement at a time, with no basic blocks. It costs
uses times def-use distance, so it checks programs far beyond the
brute-force limit, and it fills a `DfEdgeTable` so that target order and
warnings can be compared too.

The benchmark loads this file while it sets up, so it holds the oracles
and nothing else; the reference walks are in `ref_walks.py`.
"""

from __future__ import annotations

from collections import deque

from flowgraphs.dataflow import DfEdgeTable, UndefinedUseWarning
from flowgraphs.model import DefUseAttr, EdgeTable, FlowGraph, flow_instructions


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
