"""Seeded random generator of well-formed mini-Java programs.

Two profiles:

* strict=True  -- every if, or else-if chain, ends in an else; loop
  bodies and branches are non-empty. Under those conditions each
  loop/if condition has exactly two outgoing control-flow edges and
  every other reachable instruction exactly one, which is what the
  structural acceptance checks assert.
* strict=False -- richer shapes for the data-flow oracle: else-less ifs
  and else-if chains, empty blocks and loop bodies, single-statement
  branches, dead code.

`gen_jumps` writes loose programs full of jumps: else-if ladders,
labeled blocks left by `break L`, labeled loops with `continue L` from
inner loops, dead code after every kind of jump, and `++`/`--` in
conditions. It is an entry point of its own, so that `gen_program`'s
programs stay as they were.

`gen_scale` produces large, mostly flat programs with short def-use
distances for the throughput smoke test. `SHAPES` builds ROADMAP's
adversarial shapes at any size.

`nested_program` nests one statement in any number of levels of the
`NESTING` shapes, its "else-ifs" shape building else-if ladders, to show
that no depth runs the parser out of stack.
"""

from __future__ import annotations

import random

from flowgraphs.model import FlowGraph, NodeKind

_REL_OPS = (" < ", " > ", " == ")
_ARITH_OPS = (" + ", " - ", " * ", " / ")


class _Gen:
    # The chances that a loop has a label, that an if has an else, and
    # that the else is another arm
    LOOP_LABEL, ELSE, ELSE_IF = 0.3, 0.5, 0.3

    def __init__(self, rng: random.Random, strict: bool, max_stmts: int, max_instrs: int):
        self.rng = rng
        self.strict = strict
        self.stmt_budget = max_stmts
        self.max_instrs = max_instrs
        self.instr_count = 2  # method + exit
        self.scopes: list[list[str]] = []
        self.loop_labels: list[str | None] = []
        self.vcount = 0
        self.lcount = 0

    # ---- bookkeeping ----

    def fresh_var(self) -> str:
        self.vcount += 1
        return f"v{self.vcount - 1}"

    def fresh_label(self) -> str:
        self.lcount += 1
        return f"L{self.lcount - 1}"

    def visible(self) -> list[str]:
        seen: dict[str, None] = {}
        for scope in self.scopes:
            for name in scope:
                seen[name] = None
        return list(seen)

    def room(self, stmts: int, instrs: int) -> bool:
        return self.stmt_budget >= stmts and self.instr_count + instrs <= self.max_instrs

    def spend(self, stmts: int, instrs: int) -> None:
        self.stmt_budget -= stmts
        self.instr_count += instrs

    # ---- expressions ----

    def operand(self, unary_ok: bool = True) -> str:
        names = self.visible()
        if names and self.rng.random() < 0.65:
            name = self.rng.choice(names)
            if unary_ok and self.rng.random() < 0.2:
                return name + self.rng.choice(("++", "--"))
            return name
        return str(self.rng.randint(0, 9))

    def arith(self) -> str:
        out = self.operand()
        for _ in range(self.rng.randint(0, 2)):
            out += self.rng.choice(_ARITH_OPS) + self.operand()
        return out

    def cond(self) -> str:
        out = self.operand() + self.rng.choice(_REL_OPS) + self.operand(unary_ok=True)
        if self.rng.random() < 0.1:
            out += self.rng.choice((" < ", " > ")) + self.operand(unary_ok=False)
        return out

    # ---- statements ----

    def stmts(self, depth: int, indent: str, min_count: int, max_count: int) -> list[str]:
        lines: list[str] = []
        want = self.rng.randint(min_count, max_count)
        made = 0
        while made < want and (made < min_count or self.room(1, 1)):
            lines.extend(self.stmt(depth, indent))
            made += 1
        return lines

    def simple_stmt(self, indent: str) -> list[str]:
        self.spend(1, 1)
        names = self.visible()
        roll = self.rng.random()
        if not names or roll < 0.45:
            name = self.fresh_var()
            line = f"int {name} = {self.arith()};"
            self.scopes[-1].append(name)
        elif roll < 0.8:
            line = f"{self.rng.choice(names)} = {self.arith()};"
        else:
            line = f"{self.rng.choice(names)}{self.rng.choice(('++', '--'))};"
        return [indent + line]

    def stmt(self, depth: int, indent: str) -> list[str]:
        roll = self.rng.random()
        deep_ok = depth < 4 and self.room(4, 3)
        if deep_ok and roll < 0.14:
            return self.while_stmt(depth, indent)
        if deep_ok and roll < 0.30:
            return self.if_stmt(depth, indent)
        if deep_ok and roll < 0.36:
            return self.block_stmt(depth, indent)
        if self.loop_labels and roll < 0.46:
            return self.jump_stmt(indent)
        if roll < 0.52:
            self.spend(1, 1)
            value = f" {self.arith()}" if self.rng.random() < 0.7 else ""
            return [f"{indent}return{value};"]
        return self.simple_stmt(indent)

    def while_stmt(self, depth: int, indent: str) -> list[str]:
        label = self.fresh_label() if self.rng.random() < self.LOOP_LABEL else None
        self.spend(2 if label else 1, 1)
        head = (f"{label}: " if label else "") + f"while ({self.cond()}) {{"
        self.loop_labels.append(label)
        self.scopes.append([])
        body = self.stmts(depth + 1, indent + "    ",
                          min_count=1 if self.strict else 0, max_count=3)
        self.scopes.pop()
        self.loop_labels.pop()
        return [indent + head] + body + [indent + "}"]

    def branch(self, depth: int, indent: str) -> list[str]:
        self.scopes.append([])
        lines = self.stmts(depth + 1, indent + "    ",
                           min_count=1 if self.strict else 0, max_count=3)
        self.scopes.pop()
        return lines

    def if_stmt(self, depth: int, indent: str) -> list[str]:
        self.spend(1, 1)
        lines = [f"{indent}if ({self.cond()}) {{"] + self.branch(depth, indent)
        # An else may be another arm, `else if`; in strict mode the last arm
        # still has an else.
        while self.strict or self.rng.random() < self.ELSE:
            if self.rng.random() < self.ELSE_IF and self.room(4, 3):
                self.spend(1, 1)
                lines.append(f"{indent}}} else if ({self.cond()}) {{")
                lines += self.branch(depth, indent)
                continue
            lines += [indent + "} else {"] + self.branch(depth, indent)
            break
        lines.append(indent + "}")
        return lines

    def block_stmt(self, depth: int, indent: str) -> list[str]:
        self.spend(1, 0)
        self.scopes.append([])
        body = self.stmts(depth + 1, indent + "    ",
                          min_count=1 if self.strict else 0, max_count=3)
        self.scopes.pop()
        return [indent + "{"] + body + [indent + "}"]

    def jump_stmt(self, indent: str) -> list[str]:
        self.spend(1, 1)
        kind = self.rng.choice(("break", "continue"))
        labels = [lb for lb in self.loop_labels if lb is not None]
        if labels and self.rng.random() < 0.4:
            return [f"{indent}{kind} {self.rng.choice(labels)};"]
        return [f"{indent}{kind};"]

    def generate(self) -> str:
        nparams = self.rng.choice((0, 1, 1, 2, 2, 3))
        params = [self.fresh_var() for _ in range(nparams)]
        self.scopes = [list(params)]
        body = self.stmts(depth=1, indent="    ", min_count=1, max_count=8)
        header = "int m(" + ", ".join(f"int {p}" for p in params) + ") {"
        return "\n".join([header] + body + ["}"]) + "\n"


def gen_program(seed: int, *, strict: bool = False,
                max_stmts: int = 40, max_instrs: int = 10 ** 9) -> str:
    return _Gen(random.Random(seed), strict, max_stmts, max_instrs).generate()


class _JumpGen(_Gen):
    """Loose programs whose statements jump as often as the nesting allows."""

    LOOP_LABEL, ELSE, ELSE_IF = 0.7, 0.8, 0.7

    def __init__(self, rng: random.Random, max_stmts: int):
        super().__init__(rng, False, max_stmts, 10 ** 9)
        self.block_labels: list[str] = []

    def cond(self) -> str:
        names = self.visible()
        if names and self.rng.random() < 0.3:  # a condition that starts with a suffix ++/--
            step = self.rng.choice(names) + self.rng.choice(("++", "--"))
            return step + self.rng.choice(_REL_OPS) + self.operand()
        return super().cond()

    def stmt(self, depth: int, indent: str) -> list[str]:
        roll = self.rng.random()
        deep_ok = depth < 5 and self.room(4, 3)
        if deep_ok and roll < 0.16:
            return self.while_stmt(depth, indent)
        if deep_ok and roll < 0.30:
            return self.if_stmt(depth, indent)
        if deep_ok and roll < 0.38:
            return self.labeled_block(depth, indent)
        if (self.loop_labels or self.block_labels) and roll < 0.60:
            self.spend(1, 1)
            return [indent + self.jump()] + self.dead_code(depth, indent)
        if roll < 0.66:
            self.spend(1, 1)
            return [f"{indent}return {self.arith()};"] + self.dead_code(depth, indent)
        return self.simple_stmt(indent)

    def jump(self) -> str:
        """break or continue, to any target that takes it; a labeled one
        is as likely as every unlabeled one together."""
        loops = [label for label in self.loop_labels if label is not None]
        labeled = [f"break {label};" for label in loops + self.block_labels]
        labeled += [f"continue {label};" for label in loops]
        if not self.loop_labels or labeled and self.rng.random() < 0.5:
            return self.rng.choice(labeled)
        return self.rng.choice(("break;", "continue;"))

    def dead_code(self, depth: int, indent: str) -> list[str]:
        """Seven times in ten, a statement after a jump or a return, which
        nothing reaches."""
        if self.rng.random() < 0.7 and self.room(1, 1):
            return self.stmt(depth, indent)
        return []

    def labeled_block(self, depth: int, indent: str) -> list[str]:
        label = self.fresh_label()
        self.spend(2, 0)
        self.block_labels.append(label)
        self.scopes.append([])
        body = self.stmts(depth + 1, indent + "    ", min_count=0, max_count=4)
        self.scopes.pop()
        self.block_labels.pop()
        return [f"{indent}{label}: {{"] + body + [indent + "}"]


def gen_jumps(seed: int, max_stmts: int = 30) -> str:
    """A loose program of at most about `max_stmts` statements, full of jumps."""
    return _JumpGen(random.Random(seed), max_stmts).generate()


def gen_scale(seed: int, n_stmts: int) -> str:
    """A program with at least n_stmts statements and local def-use chains."""
    rng = random.Random(seed)
    lines = ["int m(int v0) {"]
    count = 0
    pool = ["v0"]
    k = 1
    while count < n_stmts:
        prev = pool[-1]
        name = f"v{k}"
        k += 1
        lines.append(f"    int {name} = {prev} + {rng.randint(1, 9)};")
        lines.append(f"    {name}{rng.choice(('++', '--'))};")
        count += 2
        pool.append(name)
        if len(pool) > 6:
            pool.pop(0)
        shape = rng.random()
        if shape < 0.3:
            other = rng.choice(pool)
            lines.append(f"    if ({name} < {rng.randint(1, 9)}) {{")
            lines.append(f"        {other} = {other} + 1;")
            lines.append("    } else {")
            lines.append(f"        {other} = {other} - 1;")
            lines.append("    }")
            count += 3
        elif shape < 0.5:
            lines.append(f"    while ({name} > 0) {{")
            lines.append(f"        {name}--;")
            lines.append("    }")
            count += 2
    lines.append("    return v1;")
    lines.append("}")
    count += 1
    return "\n".join(lines) + "\n"


# ROADMAP's adversarial shapes, each one method with n copies of a
# statement pattern. A data-flow search that crosses blocks one use at a
# time is quadratic on the first four; loop-nest has about n² edges.


def branchy(n: int) -> str:
    """Every use of `x` crosses all the ifs back to its definition."""
    copies = "".join(f"if (s < {k}) {{ s = {k}; }} s = s + x; " for k in range(n))
    return f"int m() {{ int x = 1; int s = 0; {copies}return s; }}"


def branchy_then(n: int) -> str:
    """Branchy with the read of `x` inside each then branch."""
    copies = "".join(f"if (s < {k}) {{ s = {k} + x; }} s = s + 1; " for k in range(n))
    return f"int m() {{ int x = 1; int s = 0; {copies}return s; }}"


def many_vars(n: int) -> str:
    """n variables, an if that may write each, and one return that reads all."""
    decls = "".join(f"int v{k} = {k}; " for k in range(n))
    ifs = "".join(f"if (v{k} < 1) {{ v{k} = 1; }} " for k in range(n))
    return f"int m() {{ {decls}{ifs}return {' + '.join(f'v{k}' for k in range(n))}; }}"


def ladder_reads(n: int) -> str:
    """An n-arm else-if ladder whose every condition reads the parameter."""
    arms = "".join(f"if (p == {k}) {{ q = {k}; }} else " for k in range(n))
    return f"int m(int p) {{ int q = 0; {arms}{{ q = 1; }} return q; }}"


def loop_nest(n: int) -> str:
    """n loops in a row, any of which may be skipped."""
    loops = "".join(f"while (s < {k}) {{ s = s + x; }} " for k in range(n))
    return f"int m() {{ int x = 1; int s = 0; {loops}return s; }}"


SHAPES = {"branchy": branchy, "branchy-then": branchy_then, "many-vars": many_vars,
          "ladder-reads": ladder_reads, "loop-nest": loop_nest}


# One level of each nesting shape: the text before and after what it nests.
# Conditions read no variable, so that data flow stays linear in the depth.
NESTING = {
    "blocks": ("{ ", " }"),
    "whiles": ("while (1) ", ""),
    "braced whiles": ("while (1) { ", " }"),
    "ifs": ("if (1) ", ""),
    "else-ifs": ("if (1) { } else ", ""),
    "labels": ("l: ", ""),
    "assignments": ("a = ", ""),
    "parentheses": ("(", ")"),
}
_EXPRESSION_NESTING = ("assignments", "parentheses")


def nested_program(levels: list[str]) -> str:
    """`a++;` in `levels`, NESTING shape names listed outermost first.

    Statement shapes nest the statement and expression shapes its `a++`,
    each in their order in `levels`, as many as wanted: the parser has no
    depth limit. Parentheses may not hold an assignment, so such a program
    is a syntax error.
    """
    statements = [NESTING[name] for name in levels if name not in _EXPRESSION_NESTING]
    expressions = [NESTING[name] for name in levels if name in _EXPRESSION_NESTING]
    return "int m(int a) { " + _wrap(statements, _wrap(expressions, "a++") + ";") + " }"


def _wrap(shapes: list[tuple[str, str]], inner: str) -> str:
    return ("".join(before for before, _ in shapes) + inner
            + "".join(after for _, after in reversed(shapes)))


_NOT_STATEMENTS = (NodeKind.METHOD, NodeKind.EXIT, NodeKind.EXPR, NodeKind.VAR, NodeKind.PARAM)


def count_statements(graph: FlowGraph) -> int:
    """Number of statement nodes in the flow graph."""
    return sum(node.kind not in _NOT_STATEMENTS for node in graph.nodes)
