"""The execution oracle: seeded random runs must stay inside the computed edges.

`Runs` interprets the reference parser's tree of a program. Each `if`
takes a branch by a seeded coin, and each loop's condition sends control
into the body with a fixed chance, so every control-flow path is a run
some coin tosses choose. Values are not kept: no value decides a branch,
so a run needs only the order of reads and writes, and no division can
fault. Conditions are still evaluated for their reads and writes.

A run records each (previous, current) transfer between flow instructions
and each (last writer, reader) pair of a variable, with the Method writing
the parameters. What one run of the program does, the static graph must
allow (Agrawal and Horgan, "Dynamic Program Slicing", PLDI 1990): every
transfer is a cfNext edge, and every pair a dfNext edge, the end points of
a def-clear path (Rapps and Weyuker, TSE 1985). The other way round, every
cfNext edge out of a reachable instruction, and every dfNext edge between
reachable ones but a self edge, lies on some path, which enough runs take.
The oracle shares no code with the parser, the control-flow backpatching
or the data-flow search.
"""

from __future__ import annotations

import random

from flowgraphs.model import NodeKind
from flowgraphs.pipeline import analyze

import ref_parser
from helpers import images, jump_sources, random_sources

EXIT = 1  # the Exit node's id; the Method's is 0
LOOP_P = 0.5  # the chance that a loop's condition sends control into the body
STEP_LIMIT = 1_000  # flow instructions in one run; a run stops at the limit


class _Jump(Exception):
    """A `break` or `continue` on its way to the statement it leaves or repeats."""

    def __init__(self, stmt: ref_parser.Break | ref_parser.Continue) -> None:
        self.stmt = stmt


class _Return(Exception):
    """A `return`, on its way to Exit."""


class _Stop(Exception):
    """A run that reached `STEP_LIMIT`; it ends where it is, not at Exit."""


class Runs:
    """Seeded runs of one program; `transfers` and `pairs` gather what they observe."""

    def __init__(self, source: str, seed: int) -> None:
        self.method = ref_parser.parse_program(source)
        self.analysis = analyze(source)
        graph = self.analysis.graph
        # Statement or condition -> its node id; each label must be the graph's.
        self.id_of = {}
        for nid, node in enumerate(images(self.method)):
            if node is not None and graph.node(nid).kind not in (NodeKind.VAR, NodeKind.PARAM):
                assert graph.node(nid).txt == node.txt, (nid, node)
                self.id_of[node] = nid
        self.rng = random.Random(seed)
        self.transfers: set[tuple[int, int]] = set()
        self.pairs: set[tuple[int, int]] = set()

    def run(self) -> None:
        self.at, self.steps = 0, 0
        self.writer = dict.fromkeys(self.method.params, 0)  # variable -> its last writer
        try:
            for stmt in self.method.body:
                self.execute(stmt)
        except _Return:
            pass
        except _Stop:
            return
        self.enter(EXIT)

    def enter(self, nid: int) -> None:
        self.transfers.add((self.at, nid))
        self.at = nid
        self.steps += 1
        if self.steps == STEP_LIMIT:
            raise _Stop

    def execute(self, stmt: ref_parser.Statement, label: str | None = None) -> None:
        """Run `stmt`, which `label` labels if it is the statement of a Labeled."""
        if isinstance(stmt, ref_parser.Block):
            for child in stmt.stmts:
                self.execute(child)
        elif isinstance(stmt, ref_parser.Labeled):
            try:
                self.execute(stmt.stmt, stmt.name)
            except _Jump as jump:
                if not (isinstance(jump.stmt, ref_parser.Break) and jump.stmt.label == stmt.name):
                    raise
        elif isinstance(stmt, ref_parser.While):
            while self.test(stmt.cond, LOOP_P):
                try:
                    self.execute(stmt.body)
                except _Jump as jump:
                    if jump.stmt.label not in (None, label):
                        raise
                    if isinstance(jump.stmt, ref_parser.Break):
                        break
        elif isinstance(stmt, ref_parser.If):
            if self.test(stmt.cond, 0.5):
                self.execute(stmt.then)
            elif stmt.orelse is not None:
                self.execute(stmt.orelse)
        else:
            nid = self.id_of[stmt]
            self.enter(nid)
            if isinstance(stmt, ref_parser.LocalVarDecl):
                self.evaluate(stmt.init, nid)
                self.writer[stmt] = nid
            elif isinstance(stmt, ref_parser.ExprStmt):
                self.evaluate(stmt.expr, nid)
            elif isinstance(stmt, ref_parser.Return):
                if stmt.value is not None:
                    self.evaluate(stmt.value, nid)
                raise _Return
            else:
                raise _Jump(stmt)

    def test(self, cond: ref_parser.Expression, chance: float) -> bool:
        """Evaluate a condition; True, with `chance`, for the branch it guards."""
        nid = self.id_of[cond]
        self.enter(nid)
        self.evaluate(cond, nid)
        return self.rng.random() < chance

    def evaluate(self, expr: ref_parser.Expression, nid: int) -> None:
        """The reads and writes of `expr`, in the order a run makes them, at `nid`."""
        if isinstance(expr, ref_parser.IdentRef):
            self.pairs.add((self.writer[expr.decl], nid))
        elif isinstance(expr, ref_parser.Chain):
            for child in expr.children:
                self.evaluate(child, nid)
        elif isinstance(expr, ref_parser.Assign):
            self.evaluate(expr.value, nid)
            self.writer[expr.decl] = nid
        elif isinstance(expr, ref_parser.SuffixUnary):
            self.pairs.add((self.writer[expr.decl], nid))
            self.writer[expr.decl] = nid

    def unobserved(self) -> tuple[set, set]:
        """The cfNext edges out of reachable instructions, and the non-self
        dfNext edges between reachable ones, that no run observed."""
        cf_next = self.analysis.cf.cf_next
        reachable, todo = {0}, [0]
        while todo:
            for dst in cf_next.get(todo.pop(), ()):
                if dst not in reachable:
                    reachable.add(dst)
                    todo.append(dst)
        cf = {(a, b) for a, b in self.analysis.cf.edges() if a in reachable}
        df = {(a, b) for a, b in self.analysis.df.edges()
              if a != b and a in reachable and b in reachable}
        return cf - self.transfers, df - self.pairs


BATCH, MAX_RUNS = 100, 20_000  # runs of one program: batches until every edge is observed


def observe(source: str, seed: int) -> tuple[tuple[set, set], tuple[set, set]]:
    """What the runs of `source` observed outside the computed cfNext and
    dfNext edges, and the edges they should have observed but did not."""
    runs = Runs(source, seed)
    for _ in range(MAX_RUNS // BATCH):
        for _ in range(BATCH):
            runs.run()
        if not any(runs.unobserved()):
            break
    outside = (runs.transfers - set(runs.analysis.cf.edges()),
               runs.pairs - set(runs.analysis.df.edges()))
    return outside, runs.unobserved()


def test_runs_stay_inside_the_computed_edges_and_take_them_all():
    # 300 of the cached programs and 300 jump programs, each from its own
    # seed; the hardest takes about 4,400 runs to observe every edge.
    sources = [*random_sources()[:300], *jump_sources()[:300]]
    bad = []
    for seed, source in enumerate(sources):
        outside, unobserved = observe(source, seed)
        if any(outside) or any(unobserved):
            bad.append((seed, outside, unobserved))
    assert bad == []
