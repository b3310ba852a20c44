"""Definition and use sets per flow instruction.

Reads and writes are synthesized over expressions: an assignment writes
its target (plus whatever its right-hand side writes) and reads only its
right-hand side, the suffix `++`/`--` forms both read and write their
variable, chains concatenate their children's contributions in order.
`model.lower` projects those onto the statements' flow-graph images; a
declaration additionally defines the declared variable, and a method
defines its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import minijava as mj


@dataclass
class DefUseAttr:
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
