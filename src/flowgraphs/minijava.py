"""Lexer, AST, and parser for the mini-Java subset.

The accepted language is a single method of the form

    int m(int a, int b) { ... }

whose body may contain local `int` declarations with initializer,
expression statements, `while`, `if`/`else`, `return`, labeled
statements, `break`/`continue` (optionally labeled), and nested blocks.
Expressions are flat n-ary chains per precedence level (equality,
relational, additive, multiplicative) over identifiers, decimal
integer literals, assignments, and the suffix `++`/`--` forms.

`tokenize` makes one `finditer` scan over a single pattern that skips the
blanks before each token, so each token (and each line end) costs one
match; an unexpected character is caught by the pattern itself. Statements
are parsed by recursive descent and expressions by precedence climbing
(Pratt, "Top Down Operator Precedence", POPL 1973): one operator table
gives each binary operator its level, and a run of operators of one level
becomes one Chain. A level of grouping parentheses costs two stack frames.

The parser also binds names as it goes: every identifier use, assignment
and suffix `++`/`--` gets a `decl` link to the Param or LocalVarDecl it
refers to (innermost declaration wins), every jump label must name an
enclosing labeled statement, and every break/continue must have a loop
to act on. A name error does not stop parsing; the first one in source
order is raised once the whole input has parsed, so a syntax error
anywhere takes precedence over it.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import SourcePosError


class ParseError(SourcePosError):
    def __init__(self, message: str, line: int, column: int, expected: str | None = None):
        super().__init__(message, line, column)
        self.expected = expected


class UnresolvedVariableError(SourcePosError):
    pass


class UnresolvedLabelError(SourcePosError):
    pass


class MissingEnclosingLoopError(SourcePosError):
    pass


class Pos(NamedTuple):
    line: int
    col: int


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


# AST nodes use identity equality/hash so they can key attribute maps;
# structural comparison goes through repr (positions are excluded).

@dataclass(eq=False)
class Node:
    pass


@dataclass(eq=False)
class Param(Node):
    name: str
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class Method(Node):
    name: str
    params: list[Param]
    body: list[Statement]
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class Statement(Node):
    pass


@dataclass(eq=False)
class LocalVarDecl(Statement):
    name: str
    init: Expression
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class ExprStmt(Statement):
    expr: Expression
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class While(Statement):
    cond: Expression
    body: Statement
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class If(Statement):
    cond: Expression
    then: Statement
    orelse: Statement | None
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class Return(Statement):
    value: Expression | None
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class Break(Statement):
    label: str | None
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class Continue(Statement):
    label: str | None
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class Labeled(Statement):
    name: str
    stmt: Statement
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class Block(Statement):
    stmts: list[Statement]
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class Expression(Node):
    pass


@dataclass(eq=False)
class Assign(Expression):
    target: str
    value: Expression
    pos: Pos | None = field(default=None, repr=False)
    decl: Param | LocalVarDecl | None = field(default=None, repr=False)


@dataclass(eq=False)
class SuffixUnary(Expression):
    target: str
    op: Op
    pos: Pos | None = field(default=None, repr=False)
    decl: Param | LocalVarDecl | None = field(default=None, repr=False)


@dataclass(eq=False)
class Chain(Expression):
    kind: ChainKind
    children: list[Expression]
    operators: list[Op]
    pos: Pos | None = field(default=None, repr=False)


@dataclass(eq=False)
class IdentRef(Expression):
    name: str
    pos: Pos | None = field(default=None, repr=False)
    decl: Param | LocalVarDecl | None = field(default=None, repr=False)


@dataclass(eq=False)
class IntLit(Expression):
    value: int
    pos: Pos | None = field(default=None, repr=False)


KEYWORDS = {"int", "while", "if", "else", "return", "break", "continue"}

# One match per token: the blanks before it are skipped inside the match, a
# newline is its own match (so lines can be counted), any other character is
# caught by `bad`, and blanks at the very end are consumed by `end`, so
# `finditer` never has to search forward past text it could not match.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<nl>\n)
    | (?P<comment>//[^\n]*)
    | (?P<num>\d+)
    | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>\+\+|--|==|[-+*/<>=(){};:,])
    | (?P<bad>.)
    | (?P<end>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # 'num', 'ident', a keyword, an operator/punctuation text, or 'eof'
    text: str
    line: int
    col: int

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.col)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        if group == "nl":
            line += 1
            line_start = m.end()
        elif group == "comment":
            continue
        elif group == "end":
            break
        else:
            text = m[group]
            col = m.end() - len(text) - line_start + 1
            if group == "word":
                append(Token(text if text in KEYWORDS else "ident", text, line, col))
            elif group == "op":
                append(Token(text, text, line, col))
            elif group == "num":
                append(Token("num", text, line, col))
            else:
                raise ParseError(f"unexpected character {text!r}", line, col)
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
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
        self.error: SourcePosError | None = None  # first name error, raised after parsing

    # The last token is 'eof' and `i` never moves past it, so looking one
    # token ahead is safe whenever the current token is not 'eof'.

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.i + ahead]

    def at(self, kind: str, ahead: int = 0) -> bool:
        return self.tokens[self.i + ahead].kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            found = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(
                f"expected {kind!r}, found {found!r}", tok.line, tok.col, expected=kind
            )
        if kind != "eof":
            self.i += 1
        return tok

    # ---- name binding ----

    def fail(self, error_class: type[SourcePosError], message: str, tok: Token) -> None:
        if self.error is None:
            self.error = error_class(message, tok.line, tok.col)

    def lookup(self, tok: Token) -> Param | LocalVarDecl | None:
        for scope in reversed(self.scopes):
            if tok.text in scope:
                return scope[tok.text]
        self.fail(UnresolvedVariableError, f"undeclared variable {tok.text!r}", tok)
        return None

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
        if not self.at(")"):
            while True:
                self.expect("int")
                ptok = self.expect("ident")
                if any(p.name == ptok.text for p in params):
                    raise ParseError(f"duplicate parameter {ptok.text!r}", ptok.line, ptok.col)
                params.append(Param(ptok.text, pos=ptok.pos))
                if not self.at(","):
                    break
                self.advance()
        self.expect(")")
        self.scopes.append({p.name: p for p in params})
        body = self.parse_block().stmts
        self.expect("eof")
        return Method(name, params, body, pos=start.pos)

    # ---- statements ----

    def parse_block(self) -> Block:
        start = self.expect("{")
        self.scopes.append({})
        stmts = []
        while not self.at("}"):
            if self.at("eof"):
                raise ParseError("expected '}', found end of input",
                                 self.peek().line, self.peek().col, expected="}")
            stmts.append(self.parse_statement())
        self.expect("}")
        self.scopes.pop()
        return Block(stmts, pos=start.pos)

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == "{":
            return self.parse_block()
        if tok.kind == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_condition()
            self.expect(")")
            self.scopes.append({})
            self.loop_depth += 1
            body = self.parse_statement()
            self.loop_depth -= 1
            self.scopes.pop()
            return While(cond, body, pos=tok.pos)
        if tok.kind == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_condition()
            self.expect(")")
            self.scopes.append({})
            then = self.parse_statement()
            self.scopes.pop()
            orelse = None
            if self.at("else"):
                self.advance()
                self.scopes.append({})
                orelse = self.parse_statement()
                self.scopes.pop()
            return If(cond, then, orelse, pos=tok.pos)
        if tok.kind == "return":
            self.advance()
            value = None if self.at(";") else self.parse_condition()
            self.expect(";")
            return Return(value, pos=tok.pos)
        if tok.kind in ("break", "continue"):
            self.advance()
            label = self.advance().text if self.at("ident") else None
            self.expect(";")
            self.check_jump(tok, label)
            return (Break if tok.kind == "break" else Continue)(label, pos=tok.pos)
        if tok.kind == "int":
            self.advance()
            name = self.expect("ident").text
            self.expect("=")
            init = self.parse_expression()  # bound before the declared name is in scope
            self.expect(";")
            decl = LocalVarDecl(name, init, pos=tok.pos)
            self.scopes[-1][name] = decl
            return decl
        if tok.kind == "ident" and self.at(":", 1):
            self.advance()
            self.advance()
            self.labels.append((tok.text, self.at("while")))
            stmt = self.parse_statement()
            self.labels.pop()
            return Labeled(tok.text, stmt, pos=tok.pos)
        expr = self.parse_expression()
        self.expect(";")
        return ExprStmt(expr, pos=tok.pos)

    # ---- expressions ----
    # Assignments are legal only at statement/initializer top level, so
    # parenthesized groups and chain operands go through parse_condition.

    def parse_expression(self) -> Expression:
        if self.at("ident") and self.at("=", 1):
            tok = self.advance()
            self.advance()
            value = self.parse_expression()  # bound before the target
            return Assign(tok.text, value, pos=tok.pos, decl=self.lookup(tok))
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
            children, operators = [left], []
            while entry is not None and entry[0] == level:
                self.i += 1
                operators.append(entry[2])
                children.append(self.parse_unary() if level == self._TOP
                                else self.parse_condition(level + 1))
                entry = binary.get(tokens[self.i].kind)
            left = Chain(kind, children, operators, pos=None)
        return left

    def parse_unary(self) -> Expression:
        """A primary expression, with its suffix `++`/`--` if one follows."""
        tok = self.tokens[self.i]
        kind = tok.kind
        if kind == "ident":
            self.i += 1
            expr = IdentRef(tok.text, pos=tok.pos, decl=self.lookup(tok))
        elif kind == "num":
            self.i += 1
            expr = IntLit(int(tok.text), pos=tok.pos)
        elif kind == "(":
            # Grouping parentheses only; they leave no trace in the AST.
            self.i += 1
            expr = self.parse_condition()
            self.expect(")")
        elif kind == "++" or kind == "--":
            raise ParseError(f"prefix '{tok.text}' is not supported", tok.line, tok.col)
        else:
            found = tok.text if kind != "eof" else "end of input"
            raise ParseError(f"expected an expression, found {found!r}", tok.line, tok.col)
        tok = self.tokens[self.i]
        if tok.kind == "++" or tok.kind == "--":
            self.i += 1
            if not isinstance(expr, IdentRef):
                raise ParseError(f"'{tok.text}' target must be a variable", tok.line, tok.col)
            op = Op.INC if tok.kind == "++" else Op.DEC
            return SuffixUnary(expr.name, op, pos=expr.pos, decl=expr.decl)
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
        raise parser.error
    return method
