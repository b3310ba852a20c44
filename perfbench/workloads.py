"""Seeded input generators for the benchmark's workloads.

Each generator returns `Program`s: the mini-Java source the CLI reads,
plus what the generator knows about the flow graph the source must
produce. Every program records the multiset of (node kind, label) pairs
its graph must contain, because the generator writes each statement and
condition in the canonical spacing the labels use. The scale and
fanout programs also record their exact `dfNext` edges as label pairs.

These generators belong to the benchmark on purpose: nothing the test
suite changes may move a workload.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass

FLOW_KINDS = frozenset({"Method", "Exit", "SimpleStmt", "Expr", "Return", "Break", "Continue"})

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_]\w*|\+\+|--|==|[-+*/<>=(){};:,]")


@dataclass
class Program:
    name: str
    source: str
    nodes: Counter  # (kind, label) -> count, over every graph node
    df_labels: Counter | None = None  # exact dfNext as a multiset of (label, label) pairs

    @property
    def flow_instructions(self) -> int:
        return sum(n for (kind, _), n in self.nodes.items() if kind in FLOW_KINDS)

    @property
    def tokens(self) -> int:
        return len(_TOKEN_RE.findall(self.source)) + 1  # + end of input


class _Corpus:
    """One small random program: else-less ifs, unbraced branches, empty
    bodies, labeled loops and blocks with labeled jumps, dead code after
    jumps and returns."""

    def __init__(self, rng: random.Random, max_stmts: int):
        self.rng = rng
        self.budget = max_stmts
        self.nodes: Counter = Counter()
        self.scopes: list[list[str]] = []
        self.loops: list[str | None] = []  # enclosing loops' labels
        self.blocks: list[str] = []  # enclosing labeled blocks
        self.next_var = 0
        self.next_label = 0

    def node(self, kind: str, label: str) -> None:
        self.nodes[kind, label] += 1

    def fresh(self, prefix: str) -> str:
        if prefix == "v":
            self.next_var += 1
            return f"v{self.next_var - 1}"
        self.next_label += 1
        return f"L{self.next_label - 1}"

    def visible(self) -> list[str]:
        return [name for scope in self.scopes for name in scope]

    def operand(self) -> str:
        names = self.visible()
        if names and self.rng.random() < 0.7:
            name = self.rng.choice(names)
            return name + self.rng.choice(("++", "--")) if self.rng.random() < 0.15 else name
        return str(self.rng.randint(0, 9))

    def arith(self) -> str:
        out = self.operand()
        for _ in range(self.rng.choice((0, 0, 1, 1, 2))):
            out += self.rng.choice((" + ", " - ", " * ", " / ")) + self.operand()
        return out

    def cond(self) -> str:
        out = self.operand() + self.rng.choice((" < ", " > ", " == ")) + self.operand()
        self.node("Expr", out)
        return out

    def body(self, depth: int, indent: str) -> list[str]:
        """A braced block of zero to three statements."""
        self.node("Block", "{...}")
        self.scopes.append([])
        lines = ["{"]
        for _ in range(self.rng.randint(0, 3)):
            if self.budget <= 0:
                break
            lines += self.stmt(depth + 1, indent + "    ")
        self.scopes.pop()
        if len(lines) == 1:
            return ["{ }"]
        return lines + [indent + "}"]

    def branch(self, depth: int, indent: str) -> list[str]:
        """A loop body or if branch: usually braced, sometimes one simple statement."""
        if self.rng.random() < 0.2:
            self.budget -= 1
            self.scopes.append([])
            text = self.simple()
            self.scopes.pop()
            return [text]
        return self.body(depth, indent)

    def simple(self) -> str:
        names = self.visible()
        roll = self.rng.random()
        if not names or roll < 0.4:
            name = self.fresh("v")
            text = f"int {name} = {self.arith()};"
            self.scopes[-1].append(name)
            self.node("Var", name)
        elif roll < 0.8:
            text = f"{self.rng.choice(names)} = {self.arith()};"
        else:
            text = f"{self.rng.choice(names)}{self.rng.choice(('++', '--'))};"
        self.node("SimpleStmt", text)
        return text

    def stmt(self, depth: int, indent: str) -> list[str]:
        self.budget -= 1
        roll = self.rng.random()
        nested = depth < 4 and self.budget >= 3
        if nested and roll < 0.13:
            label = self.fresh("L") if self.rng.random() < 0.3 else None
            if label:
                self.node("Label", label + ":")
                self.budget -= 1
            self.node("Loop", "while")
            head = f"while ({self.cond()}) "
            self.loops.append(label)
            lines = self.branch(depth, indent)
            self.loops.pop()
            return _join(indent, (f"{label}: " if label else "") + head, lines)
        if nested and roll < 0.28:
            self.node("If", "if")
            lines = _join(indent, f"if ({self.cond()}) ", self.branch(depth, indent))
            if self.rng.random() < 0.5:
                lines = lines[:-1] + _join(indent, lines[-1].strip() + " else ",
                                           self.branch(depth, indent))
            return lines
        if nested and roll < 0.34:
            label = self.fresh("L") if self.rng.random() < 0.4 else None
            if label:
                self.node("Label", label + ":")
                self.budget -= 1
                self.blocks.append(label)
            lines = self.body(depth, indent)
            if label:
                self.blocks.pop()
            return _join(indent, f"{label}: " if label else "", lines)
        if (self.loops or self.blocks) and roll < 0.44:
            return [indent + self.jump()]
        if roll < 0.49:
            value = self.arith() if self.rng.random() < 0.7 else None
            text = f"return {value};" if value else "return;"
            self.node("Return", text)
            return [indent + text]
        return [indent + self.simple()]

    def jump(self) -> str:
        # A labeled jump names an enclosing loop (break or continue) or an
        # enclosing labeled block (break only); an unlabeled one needs a loop.
        kind = "continue" if self.loops and self.rng.random() < 0.5 else "break"
        targets = [lb for lb in self.loops if lb is not None]
        if kind == "break":
            targets += self.blocks
        self.node(kind.capitalize(), kind)
        if targets and (not self.loops or self.rng.random() < 0.4):
            return f"{kind} {self.rng.choice(targets)};"
        return f"{kind};"

    def generate(self) -> str:
        params = [self.fresh("v") for _ in range(self.rng.choice((0, 1, 1, 2, 3)))]
        for p in params:
            self.node("Param", p)
        self.node("Method", "m()")
        self.node("Exit", "Exit")
        self.scopes = [list(params)]
        lines = []
        for _ in range(self.rng.randint(2, 12)):
            if self.budget <= 0:
                break
            lines += self.stmt(1, "    ")
        header = "int m(" + ", ".join(f"int {p}" for p in params) + ") {"
        return "\n".join([header] + lines + ["}"]) + "\n"


def _join(indent: str, head: str, lines: list[str]) -> list[str]:
    """Prefix a nested statement's first line with its head."""
    return [indent + head + lines[0].lstrip()] + lines[1:]


def corpus(seed: int, count: int = 1000, max_stmts: int = 40) -> list[Program]:
    """`count` small random programs of at most `max_stmts` statements."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        gen = _Corpus(random.Random(rng.getrandbits(64)), max_stmts)
        source = gen.generate()
        out.append(Program(f"c{i:04d}", source, gen.nodes))
    return out


def scale(seed: int, n_stmts: int = 10_000) -> Program:
    """One large, mostly flat program with short def-use distances.

    Shape: a declaration and an increment per step, then with some
    probability an if/else that adjusts a recent variable or a countdown
    loop. Statements are counted as two per step, three per if/else and
    two per loop, which puts 10,000 at the size of the 10k acceptance test.

    The expected `dfNext` edges come from tracking, per variable, the
    statements whose definition reaches the current point: an if/else
    leaves both branches' definitions, a loop that may run zero times
    adds its body's definition to the one before it.
    """
    rng = random.Random(seed)
    nodes: Counter = Counter({("Method", "m()"): 1, ("Exit", "Exit"): 1, ("Param", "v0"): 1})
    lines = ["int m(int v0) {"]
    labels = ["m()"]  # flow instructions that define or use, by position
    reach = {"v0": {0}}
    edges: set[tuple[int, int]] = set()

    def stmt(text: str, uses: str, defines: str | None = None) -> int:
        labels.append(text)
        at = len(labels) - 1
        edges.update((d, at) for d in reach[uses])
        if defines is not None:
            reach[defines] = {at}
        return at

    pool = ["v0"]
    count = 0
    k = 1
    while count < n_stmts:
        name = f"v{k}"
        k += 1
        decl = f"int {name} = {pool[-1]} + {rng.randint(1, 9)};"
        step = f"{name}{rng.choice(('++', '--'))};"
        lines += ["    " + decl, "    " + step]
        nodes.update([("Var", name), ("SimpleStmt", decl), ("SimpleStmt", step)])
        stmt(decl, pool[-1], name)
        at = stmt(step, name, name)
        edges.add((at, at))
        count += 2
        pool = (pool + [name])[-6:]
        shape = rng.random()
        if shape < 0.3:
            other = rng.choice(pool)
            cond = f"{name} < {rng.randint(1, 9)}"
            up, down = f"{other} = {other} + 1;", f"{other} = {other} - 1;"
            lines += [f"    if ({cond}) {{", "        " + up, "    } else {",
                      "        " + down, "    }"]
            nodes.update([("If", "if"), ("Expr", cond), ("Block", "{...}"), ("Block", "{...}"),
                          ("SimpleStmt", up), ("SimpleStmt", down)])
            stmt(cond, name)
            before = reach[other]
            branches = set()
            for text in (up, down):
                reach[other] = before
                at = stmt(text, other, other)
                edges.add((at, at))
                branches.add(at)
            reach[other] = branches
            count += 3
        elif shape < 0.5:
            cond, body = f"{name} > 0", f"{name}--;"
            lines += [f"    while ({cond}) {{", "        " + body, "    }"]
            nodes.update([("Loop", "while"), ("Expr", cond), ("Block", "{...}"),
                          ("SimpleStmt", body)])
            before = reach[name]
            at_cond = stmt(cond, name)
            at = stmt(body, name, name)
            edges.update([(at, at_cond), (at, at)])
            reach[name] = before | {at}
            count += 2
    lines += ["    return v1;", "}"]
    nodes["Return", "return v1;"] += 1
    stmt("return v1;", "v1")
    df = Counter((labels[a], labels[b]) for a, b in edges)
    return Program("scale", "\n".join(lines) + "\n", nodes, df)


def fanout(seed: int, uses: int = 2500, tail_vars: int = 800) -> Program:
    """One flat block: one definition read by `uses` statements, then
    `tail_vars` declarations that the final return reads all at once.

    Every use of `d` reaches back to the single definition across all the
    uses before it, so the def-use distances are long; the expected
    `dfNext` set follows from the shape alone.
    """
    rng = random.Random(seed)
    decl_d = f"int d = p + {rng.randint(1, 9)};"
    lines = ["int m(int p) {", "    " + decl_d]
    nodes: Counter = Counter({("Method", "m()"): 1, ("Exit", "Exit"): 1, ("Param", "p"): 1,
                              ("Var", "d"): 1, ("SimpleStmt", decl_d): 1})
    df = Counter({("m()", decl_d): 1})
    for i in range(uses):
        text = f"int w{i} = d {rng.choice(('+', '-', '*'))} {rng.randint(1, 9)};"
        lines.append("    " + text)
        nodes.update([("Var", f"w{i}"), ("SimpleStmt", text)])
        df[decl_d, text] += 1
    tails = []
    for j in range(tail_vars):
        text = f"int z{j} = {rng.randint(0, 9)};"
        lines.append("    " + text)
        nodes.update([("Var", f"z{j}"), ("SimpleStmt", text)])
        tails.append(text)
    order = [f"z{j}" for j in range(tail_vars)]
    rng.shuffle(order)
    ret = "return " + " + ".join(order) + ";"
    lines += ["    " + ret, "}"]
    nodes["Return", ret] += 1
    df.update((text, ret) for text in tails)
    return Program("fanout", "\n".join(lines) + "\n", nodes, df)
