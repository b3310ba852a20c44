"""The mini-Java front end as it was when it built a full AST.

`tokenize` builds one `Token` named tuple per token, and `_Parser` reads
tokens as objects, builds every position through `Token.pos`, and parses
expressions by precedence climbing (Pratt, "Top Down Operator
Precedence", POPL 1973) into full trees: a run of operators of one level
becomes one flat n-ary `Chain`, and every identifier, assignment and
suffix `++`/`--` node keeps a `decl` link. Each statement also keeps its
label as `txt` and the declarations its own expression reads and writes
as `reads` and `writes`. The node classes are the ones the package had,
with the reprs they had as dataclasses.

`ref_walks.lower` maps such a tree onto the flow graph. That is the
reference for the package's tokenizer and parser, which build the graph
directly: for any input both must give the same nodes, with the same
labels and def/use sets, or raise the same error at the same place.

It lives apart from `oracle.py`, which the benchmark loads while it sets
up, so that its size costs the benchmark nothing.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from flowgraphs.errors import SourcePosError
from flowgraphs.minijava import (
    KEYWORDS,
    MissingEnclosingLoopError,
    ParseError,
    UnresolvedLabelError,
    UnresolvedVariableError,
)


class Pos(NamedTuple):
    line: int
    col: int


class Node:
    """A tree node. Positional arguments fill `_fields`, the fields the
    repr shows; keywords set the position, the label, a statement's
    `reads` and `writes` and an occurrence's `decl` link, which it leaves
    out. Nodes compare by identity, so they can key dictionaries."""

    _fields: tuple[str, ...] = ()
    pos: Pos | None = None
    txt = ""
    reads: tuple = ()
    writes: tuple = ()
    decl: Node | None = None

    def __init__(self, *values, **shared) -> None:
        for name, value in zip(self._fields, values, strict=True):
            setattr(self, name, value)
        for name, value in shared.items():
            setattr(self, name, value)

    def __repr__(self) -> str:
        return (type(self).__qualname__ + "("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields) + ")")


class Param(Node):
    _fields = ("name",)


class Method(Node):
    _fields = ("name", "params", "body")


class Statement(Node):
    pass


class LocalVarDecl(Statement):
    _fields = ("name", "init")


class ExprStmt(Statement):
    _fields = ("expr",)


class While(Statement):
    _fields = ("cond", "body")


class If(Statement):
    _fields = ("cond", "then", "orelse")


class Return(Statement):
    _fields = ("value",)


class Break(Statement):
    _fields = ("label",)


class Continue(Statement):
    _fields = ("label",)


class Labeled(Statement):
    _fields = ("name", "stmt")


class Block(Statement):
    _fields = ("stmts",)


class Op(enum.Enum):
    ASSIGN = "="
    MUL = "*"
    DIV = "/"
    ADD = "+"
    SUB = "-"
    EQ = "=="
    GT = ">"
    LT = "<"
    INC = "++"
    DEC = "--"


OP_TEXT = {op: op.value if op in (Op.INC, Op.DEC) else " " + op.value + " " for op in Op}


class ChainKind(enum.Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"
    RELATIONAL = "relational"
    EQUALITY = "equality"


CHAIN_OPS = {
    ChainKind.ADDITIVE: (Op.ADD, Op.SUB),
    ChainKind.MULTIPLICATIVE: (Op.MUL, Op.DIV),
    ChainKind.RELATIONAL: (Op.LT, Op.GT),
    ChainKind.EQUALITY: (Op.EQ,),
}


class Expression(Node):
    pass


class Assign(Expression):
    _fields = ("target", "value")


class SuffixUnary(Expression):
    _fields = ("target", "op")


class Chain(Expression):
    _fields = ("kind", "children", "operators")


class IdentRef(Expression):
    _fields = ("name",)


class IntLit(Expression):
    _fields = ("value",)


# One match per token, told apart by `lastindex`. A newline is its own match
# (so lines can be counted), a comment has no group, and any character but a
# blank that starts no token is caught by group 5; so the only text no
# alternative matches is blanks, which `finditer` skips in C.
_TOKEN_RE = re.compile(
    r"""
      (\n)
    | //[^\n]*
    | ([A-Za-z_][A-Za-z_0-9]*)
    | (\+\+|--|==|[-+*/<>=(){};:,])
    | (\d+)
    | ([^ \t\r])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # 'num', 'ident', a keyword, an operator/punctuation text, or 'eof'
    text: str
    line: int
    col: int

    @property
    def pos(self) -> Pos:
        return tuple.__new__(Pos, self[2:])  # Pos(line, col), without its Python-level __new__


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...), without its Python-level __new__
    line, before_line = 1, -1  # the line number, and the index just before its start
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        if group == 2:
            text = m[0]
            kind = text if text in KEYWORDS else "ident"
            append(new(Token, (kind, text, line, m.start() - before_line)))
        elif group == 3:
            text = m[0]
            append(new(Token, (text, text, line, m.start() - before_line)))
        elif group == 4:
            append(new(Token, ("num", m[0], line, m.start() - before_line)))
        elif group == 1:
            line += 1
            before_line = m.start()
        elif group == 5:
            raise ParseError(f"unexpected character {m[0]!r}", line, m.start() - before_line)
    tokens.append(Token("eof", "", line, len(source) - before_line))
    return tokens


class _Parser:
    # Operator text -> (level, chain kind, Op) for the binary operators; a
    # higher level binds tighter.
    _LEVELS = (ChainKind.EQUALITY, ChainKind.RELATIONAL, ChainKind.ADDITIVE,
               ChainKind.MULTIPLICATIVE)
    _BINARY = {op.value: (level, kind, op)
               for level, kind in enumerate(_LEVELS) for op in CHAIN_OPS[kind]}
    _TOP = len(_LEVELS) - 1

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.scopes: list[dict[str, Param | LocalVarDecl]] = []
        self.labels: list[tuple[str, bool]] = []  # (name, wraps a While)
        self.loop_depth = 0
        # The first name error, raised after parsing. Kept as its arguments:
        # a stored exception would be reachable from its own traceback
        # (through this parser in parse_program's frame), a reference cycle.
        self.error: tuple[type[SourcePosError], str, Token] | None = None
        # Declarations read and written since the last take_sets, in occurrence order
        self.reads: list[Param | LocalVarDecl | None] = []
        self.writes: list[Param | LocalVarDecl | None] = []
        self.shared_sets: dict[tuple, tuple] = {}  # one tuple per distinct set, to save memory

    # The parser reads `self.tokens[self.i]` directly. The last token is
    # 'eof' and `i` never moves past it, so stepping over a token, or looking
    # one token ahead, is safe whenever the current token is not 'eof'.

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {kind!r}, found {found}", tok.line, tok.col)
        if kind != "eof":
            self.i += 1
        return tok

    # ---- name binding ----

    def fail(self, error_class: type[SourcePosError], message: str, tok: Token) -> None:
        if self.error is None:
            self.error = (error_class, message, tok)

    def lookup(self, tok: Token) -> Param | LocalVarDecl | None:
        for scope in reversed(self.scopes):
            if tok.text in scope:
                return scope[tok.text]
        self.fail(UnresolvedVariableError, f"undeclared variable {tok.text!r}", tok)
        return None

    def take_sets(self) -> tuple[tuple, tuple]:
        """The reads and writes of the expression just parsed; the lists restart empty."""
        share = self.shared_sets.setdefault
        reads, writes = tuple(self.reads), tuple(self.writes)
        self.reads.clear()
        self.writes.clear()
        return share(reads, reads), share(writes, writes)

    def check_jump(self, tok: Token, label: str | None) -> None:
        if label is None:
            if self.loop_depth == 0:
                self.fail(MissingEnclosingLoopError, f"'{tok.text}' has no enclosing loop", tok)
            return
        wraps_loop = next((w for name, w in reversed(self.labels) if name == label), None)
        if wraps_loop is None:
            self.fail(UnresolvedLabelError, f"no enclosing label {label!r}", tok)
        elif tok.kind == "continue" and not wraps_loop:
            self.fail(MissingEnclosingLoopError, f"label {label!r} does not name a loop", tok)

    # ---- declarations ----

    def parse_method(self) -> Method:
        start = self.expect("int")
        name = self.expect("ident").text
        self.expect("(")
        params: list[Param] = []
        if self.tokens[self.i].kind != ")":
            while True:
                self.expect("int")
                ptok = self.expect("ident")
                if any(p.name == ptok.text for p in params):
                    raise ParseError(f"duplicate parameter {ptok.text!r}", ptok.line, ptok.col)
                params.append(Param(ptok.text, pos=ptok.pos))
                if self.tokens[self.i].kind != ",":
                    break
                self.i += 1
        self.expect(")")
        self.scopes.append({p.name: p for p in params})
        body = self.parse_block().stmts
        self.expect("eof")
        return Method(name, params, body, pos=start.pos, txt=name + "()")

    # ---- statements ----

    def parse_block(self) -> Block:
        start = self.expect("{")
        self.scopes.append({})
        tokens = self.tokens
        stmts = []
        while (tok := tokens[self.i]).kind != "}":
            if tok.kind == "eof":
                raise ParseError("expected '}', found end of input", tok.line, tok.col)
            stmts.append(self.parse_statement())
        self.i += 1
        self.scopes.pop()
        return Block(stmts, pos=start.pos, txt="{...}")

    def parse_statement(self) -> Statement:
        tokens = self.tokens
        tok = tokens[self.i]
        kind = tok.kind
        if kind == "int":
            self.i += 1
            name = self.expect("ident").text
            self.expect("=")
            init = self.parse_expression()  # bound before the declared name is in scope
            self.expect(";")
            reads, writes = self.take_sets()
            decl = LocalVarDecl(name, init, pos=tok.pos, txt="int " + name + " = " + init.txt + ";",
                                reads=reads, writes=writes)
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
            return While(cond, body, pos=tok.pos, txt="while", reads=reads, writes=writes)
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
            if tokens[self.i].kind == "else":
                self.i += 1
                self.scopes.append({})
                orelse = self.parse_statement()
                self.scopes.pop()
            return If(cond, then, orelse, pos=tok.pos, txt="if", reads=reads, writes=writes)
        if kind == "return":
            self.i += 1
            value = None if tokens[self.i].kind == ";" else self.parse_condition()
            self.expect(";")
            txt = "return;" if value is None else "return " + value.txt + ";"
            reads, writes = self.take_sets()
            return Return(value, pos=tok.pos, txt=txt, reads=reads, writes=writes)
        if kind == "break" or kind == "continue":
            self.i += 1
            label = None
            if tokens[self.i].kind == "ident":
                label = tokens[self.i].text
                self.i += 1
            self.expect(";")
            self.check_jump(tok, label)
            return (Break if kind == "break" else Continue)(label, pos=tok.pos, txt=kind)
        if kind == "ident" and tokens[self.i + 1].kind == ":":
            self.i += 2
            self.labels.append((tok.text, tokens[self.i].kind == "while"))
            stmt = self.parse_statement()
            self.labels.pop()
            return Labeled(tok.text, stmt, pos=tok.pos, txt=tok.text + ":")
        expr = self.parse_expression()
        self.expect(";")
        reads, writes = self.take_sets()
        # Share the expression's Pos when it starts at this statement's first token.
        pos = expr.pos if expr.pos == (tok.line, tok.col) else tok.pos
        return ExprStmt(expr, pos=pos, txt=expr.txt + ";", reads=reads, writes=writes)

    # ---- expressions ----
    # Assignments are legal only at statement/initializer top level, so
    # parenthesized groups and chain operands go through parse_condition.

    def parse_expression(self) -> Expression:
        tokens = self.tokens
        tok = tokens[self.i]
        if tok.kind == "ident" and tokens[self.i + 1].kind == "=":
            self.i += 2
            value = self.parse_expression()  # bound before the target
            decl = self.lookup(tok)
            self.writes.append(decl)
            return Assign(tok.text, value, pos=tok.pos, decl=decl, txt=tok.text + " = " + value.txt)
        return self.parse_condition()

    def parse_condition(self, min_level: int = 0) -> Expression:
        """Precedence climbing over the chain levels from `min_level` up.

        A run of operators of one level becomes one flat n-ary Chain whose
        operands are parsed at the next level; an operator of a lower
        level then continues with that Chain as its first operand.
        """
        tokens, binary = self.tokens, self._BINARY
        left = self.parse_unary()
        entry = binary.get(tokens[self.i].kind)
        while entry is not None and entry[0] >= min_level:
            level, kind, _ = entry
            children, operators, txt = [left], [], left.txt
            while entry is not None and entry[0] == level:
                self.i += 1
                op = entry[2]
                child = (self.parse_unary() if level == self._TOP
                         else self.parse_condition(level + 1))
                operators.append(op)
                children.append(child)
                txt += OP_TEXT[op] + child.txt
                entry = binary.get(tokens[self.i].kind)
            left = Chain(kind, children, operators, pos=children[0].pos, txt=txt)
        return left

    def parse_unary(self) -> Expression:
        """A primary expression, with its suffix `++`/`--` if one follows."""
        tok = self.tokens[self.i]
        kind = tok.kind
        if kind == "ident":
            self.i += 1
            decl = self.lookup(tok)
            self.reads.append(decl)
            expr = IdentRef(tok.text, pos=tok.pos, decl=decl, txt=tok.text)
        elif kind == "num":
            self.i += 1
            try:
                value = int(tok.text)
            except ValueError:  # more digits than int() converts
                raise ParseError("integer literal is too long", tok.line, tok.col) from None
            text = str(value)  # canonical; reuse the token's string when equal, to save memory
            expr = IntLit(value, pos=tok.pos, txt=tok.text if tok.text == text else text)
        elif kind == "(":
            # Grouping parentheses only; they leave no trace in the AST.
            self.i += 1
            expr = self.parse_condition()
            self.expect(")")
        elif kind == "++" or kind == "--":
            raise ParseError(f"prefix '{tok.text}' is not supported", tok.line, tok.col)
        else:
            found = repr(tok.text) if kind != "eof" else "end of input"
            raise ParseError(f"expected an expression, found {found}", tok.line, tok.col)
        tok = self.tokens[self.i]
        if tok.kind == "++" or tok.kind == "--":
            self.i += 1
            if not isinstance(expr, IdentRef):
                raise ParseError(f"'{tok.text}' target must be a variable", tok.line, tok.col)
            op = Op.INC if tok.kind == "++" else Op.DEC
            self.writes.append(expr.decl)  # the variable is read, then written
            return SuffixUnary(expr.name, op, pos=expr.pos, decl=expr.decl,
                               txt=expr.name + OP_TEXT[op])
        return expr


def parse_program(source: str) -> Method:
    """Parse mini-Java source text into a Method AST with bound names.

    Raises ParseError on malformed input, and otherwise the first
    UnresolvedVariableError / UnresolvedLabelError /
    MissingEnclosingLoopError in source order.
    """
    parser = _Parser(tokenize(source))
    method = parser.parse_method()
    if parser.error is not None:
        error_class, message, tok = parser.error
        raise error_class(message, tok.line, tok.col)
    return method

