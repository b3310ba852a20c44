"""Lexer, AST, parser and printer for the mini-Java subset.

The accepted language is a single method of the form

    int m(int a, int b) { ... }

whose body may contain local `int` declarations with initializer,
expression statements, `while`, `if`/`else`, `return`, labeled
statements, `break`/`continue` (optionally labeled), and nested blocks.
Expressions join identifiers and decimal integer literals, each maybe
with a suffix `++`/`--`, and parenthesized groups with the binary
operators `==`, `<`, `>`, `+`, `-`, `*` and `/`; an assignment may stand
only at the top of an expression statement or initializer.

`tokenize` makes one `finditer` scan over a single pattern. Each match takes
one token together with the blanks before it, so each token (and each line
end) costs one match, and a blank costs none; an unexpected character is
caught by the pattern itself. Tokens come back as parallel lists of kinds,
texts, lines and columns, with no object per token, and the parser builds a
`Pos` only for the nodes that store one. Statements are parsed by recursive
descent. The AST stops at statements: an expression is read as its label,
in one flat scan over its operands and operators, and leaves no node. A
level of grouping parentheses costs one stack frame.

The parser also binds names as it goes: every identifier use, assignment
and suffix `++`/`--` is looked up in the enclosing scopes (innermost
declaration wins), every jump label must name an enclosing labeled
statement, and every break/continue must have a loop to act on. A name
error does not stop parsing; the first one in source order is raised once
the whole input has parsed, so a syntax error anywhere takes precedence
over it.

Each statement gets its label (`txt`) as it is parsed. Structured
statements use fixed labels ("while", "if", "{...}", "break", "continue",
"name:"); simple statements, and the conditions a `while` or `if` keeps as
its `cond`, are their source text in one canonical spacing, so `a+1` and
`a + 1` in the source both label as "a + 1". Every operand and operator
is written in source order and parentheses are dropped, so no label
depends on precedence. These labels are the keys the validation DSL
matches on; `render_method` prints the AST back as source around them.

Binding a name also records its Param or LocalVarDecl in the reads or
writes of the statement whose expression (initializer, expression, return
value, or `while`/`if` condition) contains it, in occurrence order. An
identifier is read; an assignment writes its target after whatever its
right-hand side reads and writes, and does not read the target; the
suffix `++`/`--` forms both read and write their variable. No set depends
on precedence either. `model.lower` maps these onto the flow graph; a
declaration additionally defines the declared variable, and a method
defines its parameters.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import SourcePosError


class ParseError(SourcePosError):
    pass


class UnresolvedVariableError(SourcePosError):
    pass


class UnresolvedLabelError(SourcePosError):
    pass


class MissingEnclosingLoopError(SourcePosError):
    pass


class Pos(NamedTuple):
    line: int
    col: int


# AST nodes are plain slotted classes: importing `dataclasses` (which loads
# `inspect`) and generating each class's methods tripled the package's
# start-up. `__slots__` lists a class's own attributes; `_fields` those its
# repr shows, leaving out positions, def/use sets and the fixed labels. A
# simple statement's repr shows its label, all that is kept of its
# expression. Nodes use identity equality/hash so they can key attribute
# maps; structural comparison goes through repr. Each class stores its own
# attributes and passes the shared ones, which follow its own in the
# signature, to its base's `__init__`. The parser passes every argument by
# position, which saves more than the base call costs.

class Node:
    __slots__ = ("pos", "txt")  # txt is the canonical label
    _fields: tuple[str, ...] = ()

    def __init__(self, pos: Pos | None = None, txt: str = "") -> None:
        self.pos = pos
        self.txt = txt

    def __repr__(self) -> str:
        return (type(self).__qualname__ + "("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields) + ")")


class Param(Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str, pos: Pos | None = None, txt: str = "") -> None:
        Node.__init__(self, pos, txt)
        self.name = name


class Method(Node):
    __slots__ = _fields = ("name", "params", "body")

    def __init__(self, name: str, params: list[Param], body: list[Statement],
                 pos: Pos | None = None, txt: str = "") -> None:
        Node.__init__(self, pos, txt)
        self.name = name
        self.params = params
        self.body = body


class Statement(Node):
    # What the statement's own expression reads and writes, in occurrence
    # order: tuples of Param and LocalVarDecl.
    __slots__ = ("reads", "writes")

    def __init__(self, pos: Pos | None = None, txt: str = "", reads: tuple = (),
                 writes: tuple = ()) -> None:
        Node.__init__(self, pos, txt)
        self.reads = reads
        self.writes = writes


class LocalVarDecl(Statement):
    __slots__ = ("name",)
    _fields = ("name", "txt")

    def __init__(self, name: str, pos: Pos | None = None, txt: str = "", reads: tuple = (),
                 writes: tuple = ()) -> None:
        Statement.__init__(self, pos, txt, reads, writes)
        self.name = name


class ExprStmt(Statement):
    __slots__ = ()
    _fields = ("txt",)


class While(Statement):
    __slots__ = _fields = ("cond", "body")  # cond is the condition's label

    def __init__(self, cond: str, body: Statement, pos: Pos | None = None,
                 txt: str = "", reads: tuple = (), writes: tuple = ()) -> None:
        Statement.__init__(self, pos, txt, reads, writes)
        self.cond = cond
        self.body = body


class If(Statement):
    __slots__ = _fields = ("cond", "then", "orelse")  # cond is the condition's label

    def __init__(self, cond: str, then: Statement, orelse: Statement | None,
                 pos: Pos | None = None, txt: str = "", reads: tuple = (),
                 writes: tuple = ()) -> None:
        Statement.__init__(self, pos, txt, reads, writes)
        self.cond = cond
        self.then = then
        self.orelse = orelse


class Return(Statement):
    __slots__ = ()
    _fields = ("txt",)


class Break(Statement):
    __slots__ = _fields = ("label",)

    def __init__(self, label: str | None, pos: Pos | None = None, txt: str = "",
                 reads: tuple = (), writes: tuple = ()) -> None:
        Statement.__init__(self, pos, txt, reads, writes)
        self.label = label


class Continue(Statement):
    __slots__ = _fields = ("label",)

    def __init__(self, label: str | None, pos: Pos | None = None, txt: str = "",
                 reads: tuple = (), writes: tuple = ()) -> None:
        Statement.__init__(self, pos, txt, reads, writes)
        self.label = label


class Labeled(Statement):
    __slots__ = _fields = ("name", "stmt")

    def __init__(self, name: str, stmt: Statement, pos: Pos | None = None, txt: str = "",
                 reads: tuple = (), writes: tuple = ()) -> None:
        Statement.__init__(self, pos, txt, reads, writes)
        self.name = name
        self.stmt = stmt


class Block(Statement):
    __slots__ = _fields = ("stmts",)

    def __init__(self, stmts: list[Statement], pos: Pos | None = None, txt: str = "",
                 reads: tuple = (), writes: tuple = ()) -> None:
        Statement.__init__(self, pos, txt, reads, writes)
        self.stmts = stmts


KEYWORDS = {"int", "while", "if", "else", "return", "break", "continue"}

# One match per token, with the blanks before it, told apart by `lastindex`.
# A newline is its own match (so lines can be counted), a comment has no
# group, and any other character but a blank is caught by group 5.
# Identifiers, the commonest tokens, are tried first; comments go before
# the operators, so that "//" is not read as two divisions. Blanks at the
# end of input match with no group: whatever follows a run of blanks
# matches at once, so no run is ever backtracked into and scanned again.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?: ([A-Za-z_][A-Za-z_0-9]*)
      | //[^\n]*
      | (\+\+|--|==|[-+*/<>=(){};:,])
      | (\d+)
      | (\n)
      | ([^ \t\r])
      | \Z
    )
    """,
    re.VERBOSE,
)

_new = tuple.__new__  # Pos(line, col) is _new(Pos, (line, col)), without its Python-level __new__

Tokens = tuple[list[str], list[str], list[int], list[int]]


def tokenize(source: str) -> Tokens:
    """The tokens of `source` as parallel lists: kinds, texts, lines and columns.

    A kind is 'ident', 'num', a keyword, an operator or punctuation text, or
    'eof' for the end of input, which is always the last token.
    """
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    add_kind, add_text, add_line, add_col = kinds.append, texts.append, lines.append, cols.append
    line, before_line = 1, -1  # the line number, and the index just before its start
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        if group == 1:
            text = m[1]
            add_kind(text if text in KEYWORDS else "ident")
        elif group == 2:
            text = m[2]
            add_kind(text)
        elif group == 3:
            text = m[3]
            add_kind("num")
        else:
            if group == 4:
                line += 1
                before_line = m.start(4)
            elif group == 5:
                raise ParseError(f"unexpected character {m[5]!r}", line, m.start(5) - before_line)
            continue
        add_text(text)
        add_line(line)
        add_col(m.start(group) - before_line)
    add_kind("eof")
    add_text("")
    add_line(line)
    add_col(len(source) - before_line)
    return kinds, texts, lines, cols


# Binary operator -> its text in a label
_BINARY = {op: " " + op + " " for op in ("==", "<", ">", "+", "-", "*", "/")}


class _Parser:
    def __init__(self, tokens: Tokens):
        self.kinds, self.texts, self.lines, self.cols = tokens
        self.i = 0
        self.scopes: list[dict[str, Param | LocalVarDecl]] = []
        self.labels: list[tuple[str, bool]] = []  # (name, wraps a While)
        self.loop_depth = 0
        # The first name error, raised after parsing, as (class, message,
        # line, col): a stored exception would be reachable from its own
        # traceback (through this parser in parse_program's frame), a
        # reference cycle.
        self.error: tuple[type[SourcePosError], str, int, int] | None = None
        # Declarations read and written since the last take_sets, in occurrence order
        self.reads: list[Param | LocalVarDecl | None] = []
        self.writes: list[Param | LocalVarDecl | None] = []
        self.shared_sets: dict[tuple, tuple] = {}  # one tuple per distinct set, to save memory

    # The parser reads token `self.i` from the parallel lists directly. The
    # last token is 'eof' and `i` never moves past it, so stepping over a
    # token, or looking one token ahead, is safe whenever the current token
    # is not 'eof'.

    def pos(self, i: int) -> Pos:
        return _new(Pos, (self.lines[i], self.cols[i]))

    def unexpected(self, expected: str, i: int) -> ParseError:
        found = "end of input" if self.kinds[i] == "eof" else repr(self.texts[i])
        return ParseError(f"expected {expected}, found {found}", self.lines[i], self.cols[i])

    def expect(self, kind: str) -> int:
        """The index of the current token, which must be `kind`; steps over it."""
        i = self.i
        if self.kinds[i] != kind:
            raise self.unexpected(repr(kind), i)
        if kind != "eof":
            self.i = i + 1
        return i

    # ---- name binding ----

    def fail(self, error_class: type[SourcePosError], message: str, i: int) -> None:
        if self.error is None:
            self.error = (error_class, message, self.lines[i], self.cols[i])

    def lookup(self, i: int) -> Param | LocalVarDecl | None:
        name = self.texts[i]
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        self.fail(UnresolvedVariableError, f"undeclared variable {name!r}", i)
        return None

    def take_sets(self) -> tuple[tuple, tuple]:
        """The reads and writes of the expression just parsed; the lists restart empty."""
        share = self.shared_sets.setdefault
        reads, writes = tuple(self.reads), tuple(self.writes)
        self.reads.clear()
        self.writes.clear()
        return share(reads, reads), share(writes, writes)

    def check_jump(self, i: int, label: str | None) -> None:
        keyword = self.kinds[i]
        if label is None:
            if self.loop_depth == 0:
                self.fail(MissingEnclosingLoopError, f"'{keyword}' has no enclosing loop", i)
            return
        wraps_loop = next((w for name, w in reversed(self.labels) if name == label), None)
        if wraps_loop is None:
            self.fail(UnresolvedLabelError, f"no enclosing label {label!r}", i)
        elif keyword == "continue" and not wraps_loop:
            self.fail(MissingEnclosingLoopError, f"label {label!r} does not name a loop", i)

    # ---- declarations ----

    def parse_method(self) -> Method:
        start = self.expect("int")
        name = self.texts[self.expect("ident")]
        self.expect("(")
        scope: dict[str, Param] = {}  # the parameters, in order
        if self.kinds[self.i] != ")":
            while True:
                self.expect("int")
                j = self.expect("ident")
                pname = self.texts[j]
                if pname in scope:
                    raise ParseError(f"duplicate parameter {pname!r}", self.lines[j], self.cols[j])
                scope[pname] = Param(pname, self.pos(j))
                if self.kinds[self.i] != ",":
                    break
                self.i += 1
        self.expect(")")
        self.scopes.append(scope)
        body = self.parse_block().stmts
        self.expect("eof")
        return Method(name, list(scope.values()), body, self.pos(start), name + "()")

    # ---- statements ----

    def parse_block(self) -> Block:
        start = self.expect("{")
        self.scopes.append({})
        kinds = self.kinds
        stmts = []
        while (kind := kinds[self.i]) != "}":
            if kind == "eof":
                raise self.unexpected("'}'", self.i)
            stmts.append(self.parse_statement())
        self.i += 1
        self.scopes.pop()
        return Block(stmts, self.pos(start), "{...}")

    def parse_statement(self) -> Statement:
        kinds = self.kinds
        i = self.i
        kind = kinds[i]
        if kind == "int":
            self.i += 1
            name = self.texts[self.expect("ident")]
            self.expect("=")
            init = self.parse_expression()  # bound before the declared name is in scope
            self.expect(";")
            reads, writes = self.take_sets()
            decl = LocalVarDecl(name, self.pos(i), "int " + name + " = " + init + ";", reads,
                                writes)
            self.scopes[-1][name] = decl
            return decl
        if kind == "{":
            return self.parse_block()
        if kind == "while":
            self.i += 1
            self.expect("(")
            cond = self.parse_condition()
            reads, writes = self.take_sets()
            self.expect(")")
            self.scopes.append({})
            self.loop_depth += 1
            body = self.parse_statement()
            self.loop_depth -= 1
            self.scopes.pop()
            return While(cond, body, self.pos(i), "while", reads, writes)
        if kind == "if":
            self.i += 1
            self.expect("(")
            cond = self.parse_condition()
            reads, writes = self.take_sets()
            self.expect(")")
            self.scopes.append({})
            then = self.parse_statement()
            self.scopes.pop()
            orelse = None
            if kinds[self.i] == "else":
                self.i += 1
                self.scopes.append({})
                orelse = self.parse_statement()
                self.scopes.pop()
            return If(cond, then, orelse, self.pos(i), "if", reads, writes)
        if kind == "return":
            self.i += 1
            txt = "return;" if kinds[self.i] == ";" else "return " + self.parse_condition() + ";"
            self.expect(";")
            reads, writes = self.take_sets()
            return Return(self.pos(i), txt, reads, writes)
        if kind == "break" or kind == "continue":
            self.i += 1
            label = None
            if kinds[self.i] == "ident":
                label = self.texts[self.i]
                self.i += 1
            self.expect(";")
            self.check_jump(i, label)
            return (Break if kind == "break" else Continue)(label, self.pos(i), kind)
        if kind == "ident" and kinds[i + 1] == ":":
            self.i += 2
            name = self.texts[i]
            self.labels.append((name, kinds[self.i] == "while"))
            stmt = self.parse_statement()
            self.labels.pop()
            return Labeled(name, stmt, self.pos(i), name + ":")
        txt = self.parse_expression() + ";"
        self.expect(";")
        reads, writes = self.take_sets()
        return ExprStmt(self.pos(i), txt, reads, writes)

    # ---- expressions ----
    # An expression is read as its label. Assignments are legal only at
    # statement/initializer top level, so grouping parentheses, conditions
    # and return values go through parse_condition.

    def parse_expression(self) -> str:
        i = self.i
        if self.kinds[i] == "ident" and self.kinds[i + 1] == "=":
            self.i = i + 2
            value = self.parse_expression()  # bound before the target
            self.writes.append(self.lookup(i))
            return self.texts[i] + " = " + value
        return self.parse_condition()

    def parse_condition(self) -> str:
        """The label of `operand (op operand)*`, read in one flat scan.

        A label writes every operand and binary operator in source order,
        with one spacing, and the reads and writes follow source order too,
        so no precedence is computed. An operand is an identifier, a
        literal or a group in parentheses, which leaves no trace in the
        label; a suffix `++`/`--` may follow a variable.
        """
        kinds, texts = self.kinds, self.texts
        parts = []
        i = self.i
        while True:
            kind = kinds[i]
            if kind == "ident":
                self.i = i  # where the error points if lookup runs out of stack
                self.reads.append(self.lookup(i))
                text = texts[i]
                i += 1
            elif kind == "num":
                try:
                    text = str(int(texts[i]))  # canonical: "007" labels as "7"
                except ValueError:  # more digits than int() converts
                    raise ParseError("integer literal is too long", *self.pos(i)) from None
                i += 1
            elif kind == "(":
                self.i = i + 1  # where the error points if nesting runs out of stack
                text = self.parse_condition()
                i = self.expect(")") + 1
            elif kind == "++" or kind == "--":
                raise ParseError(f"prefix '{kind}' is not supported", self.lines[i], self.cols[i])
            else:
                raise self.unexpected("an expression", i)
            kind = kinds[i]
            if kind == "++" or kind == "--":
                # A variable, maybe in parentheses: its label is its name,
                # and it was the last read
                if not text.isidentifier():
                    raise ParseError(f"'{kind}' target must be a variable", self.lines[i],
                                     self.cols[i])
                self.writes.append(self.reads[-1])  # the variable is read, then written
                text += kind
                i += 1
                kind = kinds[i]
            parts.append(text)
            op = _BINARY.get(kind)
            if op is None:
                self.i = i
                return "".join(parts)
            parts.append(op)
            i += 1


def parse_program(source: str) -> Method:
    """Parse mini-Java source text into a Method AST with bound names.

    Raises ParseError on malformed input, or at the token where nesting
    runs the parser out of stack, and otherwise the first
    UnresolvedVariableError / UnresolvedLabelError /
    MissingEnclosingLoopError in source order.
    """
    parser = _Parser(tokenize(source))
    try:
        method = parser.parse_method()
    except RecursionError:
        method = None  # raised outside the handler, which would make every parser frame its context
    if method is None:
        # No later walk of the AST recurses as deep as the parser, so this bounds them all.
        raise ParseError("nesting is too deep to analyze", *parser.pos(parser.i))
    if parser.error is not None:
        error_class, message, line, col = parser.error
        raise error_class(message, line, col)
    return method


def render_method(method: Method) -> str:
    """Compose the AST back into parseable source text.

    Simple statements and jumps reuse their labels (the former are complete
    statements); structured statements are rebuilt around their parts.
    Grouping parentheses are not reproduced, so the round trip is only
    structure-preserving for sources that never relied on them.
    """
    params = ", ".join("int " + p.name for p in method.params)
    return "int " + method.name + "(" + params + ") { " + " ".join(map(_render, method.body)) + " }"


def _render(s: Statement) -> str:
    # Module-level rather than a closure: a recursive closure is a reference
    # cycle, left for the cyclic collector after every call.
    t = type(s)
    if t is LocalVarDecl or t is ExprStmt or t is Return:
        return s.txt
    if t is While:
        return "while (" + s.cond + ") " + _render(s.body)
    if t is If:
        out = "if (" + s.cond + ") " + _render(s.then)
        return out if s.orelse is None else out + " else " + _render(s.orelse)
    if t is Block:
        return "{ " + " ".join(map(_render, s.stmts)) + " }"
    if t is Labeled:
        return s.txt + " " + _render(s.stmt)  # txt is "name:"
    if t is Break or t is Continue:
        return s.txt + (" " + s.label if s.label else "") + ";"  # txt is the keyword
    raise TypeError(f"no source rule for {t.__name__}")
