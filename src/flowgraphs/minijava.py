"""Lexer and parser for the mini-Java subset; the parser builds the flow graph.

The accepted language is a single method of the form

    int m(int a, int b) { ... }

whose body may contain local `int` declarations with initializer,
expression statements, `while`, `if`/`else`, `return`, labeled
statements, `break`/`continue` (optionally labeled), and nested blocks.
Expressions join identifiers and decimal integer literals, each maybe
with a suffix `++`/`--`, and parenthesized groups with the binary
operators `==`, `<`, `>`, `+`, `-`, `*` and `/`; an assignment may stand
only at the top of an expression statement or initializer.

`tokenize` gets the token texts from one `findall` of a single pattern,
which skips the blanks and comments before each token; each distinct text
is given its kind once, so there is no Python loop per token. Tokens are
two parallel lists, kinds and texts. A token's line and column are worked
out by `token_position`, from its index, only when an error is raised.
Statements are parsed by recursive descent, and each becomes its flow-graph
node as it is parsed: there is no AST. An expression is read as its label,
in one flat scan over its operands and operators, and leaves no node. A
level of grouping parentheses costs one stack frame.

Node ids follow parse order. The Method is node 0 and its Exit node 1; a
statement's node is made before its children are parsed, so statements
come in pre-order, and the Expr node of a `while` or `if` condition comes
right after its statement's node. The variables come last, parameters
first and then locals in declaration order, as Param and Var nodes on the
Method, whatever block declares them.

The parser also binds names as it goes: every identifier use, assignment
and suffix `++`/`--` is looked up in the enclosing scopes (innermost
declaration wins), every jump label must name an enclosing labeled
statement, and every break/continue must have a loop to act on. A name
error does not stop parsing, and a syntax error, which does, replaces it.
The parser keeps the error as a token index, and `parse_program` raises
the first name error, or the syntax error, once parsing has stopped.

Each node gets its label (`txt`) as it is parsed. Structured statements
use fixed labels ("while", "if", "{...}", "break", "continue", "name:");
simple statements, and the conditions of `while` and `if`, are their
source text in one canonical spacing, so `a+1` and `a + 1` in the source
both label as "a + 1". Every operand and operator is written in source
order and parentheses are dropped, so no label depends on precedence.
These labels are the keys the validation DSL matches on.

Binding a name also records its declaration in the uses or definitions
of the flow instruction whose expression (initializer, expression, return
value, or `while`/`if` condition) contains it, in occurrence order, with
duplicates dropped. An identifier is used; an assignment defines its
target after whatever its right-hand side uses and defines, and does not
use the target; the suffix `++`/`--` forms both use and define their
variable. No set depends on precedence either. A declaration also defines
the declared variable, last, and the Method defines its parameters. While
parsing, the sets hold declaration indices; they become variable node ids
once the whole input has parsed without error, when the number of
statement nodes is known.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import SourcePosError
from .model import EXIT_TEXT, DefUseAttr, FlowGraph, FlowNode, NodeKind


class ParseError(SourcePosError):
    pass


class UnresolvedVariableError(SourcePosError):
    pass


class UnresolvedLabelError(SourcePosError):
    pass


class MissingEnclosingLoopError(SourcePosError):
    pass


KEYWORDS = {"int", "while", "if", "else", "return", "break", "continue"}

# One match per token: the group, after the blanks, line ends and comments
# before it ("//" is never two divisions). A run of blanks can be skipped
# one way only, and the group matches wherever the skipping stops, since any
# other non-blank character is a token and `\Z` ends the input; so nothing
# is backtracked into, and trailing blanks are not scanned again.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]* (?: //[^\n]* [ \t\r\n]* )*
    ( [A-Za-z_][A-Za-z_0-9]*
    | \+\+ | -- | == | [-+*/<>=(){};:,]
    | \d+
    | [^ \t\r\n]
    | \Z
    )
    """,
    re.VERBOSE,
)

# Token text -> its kind, for the texts whose kind is the text itself, and "eof"
_KINDS = {text: text for text in (*KEYWORDS, "++", "--", "==", *"-+*/<>=(){};:,")}
_KINDS[""] = "eof"

Tokens = tuple[list[str], list[str]]


def tokenize(source: str) -> Tokens:
    """The tokens of `source` as two parallel lists, kinds and texts.

    A kind is 'ident', 'num', a keyword, an operator or punctuation text, or
    'eof' for the end of input: the last token, whose text is "".
    """
    texts = _TOKEN_RE.findall(source)
    if texts[-2:] == ["", ""]:  # after trailing blanks, `\Z` matched twice
        texts.pop()
    kind_of = dict.fromkeys(texts)  # each distinct text, in order of first occurrence
    for text in kind_of:
        kind = _KINDS.get(text)
        if kind is None:
            if text.isascii() and text.isidentifier():  # an ASCII letter or "_" first
                kind = "ident"
            elif text.isdecimal():  # the characters `\d` matches
                kind = "num"
            else:
                raise ParseError(f"unexpected character {text!r}",
                                 *token_position(source, texts.index(text)))
        kind_of[text] = kind
    return list(map(kind_of.__getitem__, texts)), texts


def token_position(source: str, i: int) -> tuple[int, int]:
    """The (line, column) of token `i` of `source`, counted from 1: a line ends
    at "\\n", and a column counts code points. It scans the source up to the token."""
    start = next(islice(_TOKEN_RE.finditer(source), i, None)).start(1)
    return source.count("\n", 0, start) + 1, start - source.rfind("\n", 0, start)


# Binary operator -> its text in a label
_BINARY = {op: " " + op + " " for op in ("==", "<", ">", "+", "-", "*", "/")}


class _Stop(Exception):
    """Ends parsing at a syntax error, which the parser has recorded."""


class _Parser:
    def __init__(self, tokens: Tokens):
        self.kinds, self.texts = tokens
        self.i = 0
        self.nodes: list[FlowNode] = []
        self.names: list[str] = []  # the variables' names, by declaration index
        self.params = 0  # how many of them are parameters
        self.scopes: list[dict[str, int]] = []  # name -> declaration index
        self.labels: list[tuple[str, bool]] = []  # (name, wraps a While)
        self.loop_depth = 0
        # The error parse_program raises, as (class, message, token index): the
        # first name error, or a syntax error, which replaces it and stops the
        # parser. A stored exception would be reachable from its own traceback
        # (through this parser in parse_program's frame), a reference cycle.
        self.error: tuple[type[SourcePosError], str, int] | None = None
        # Declarations read and written since the last take_sets, in occurrence order
        self.reads: list[int | None] = []
        self.writes: list[int | None] = []
        # Flow instruction id -> the declarations it defines or uses
        self.defs: dict[int, list] = {}
        self.uses: dict[int, list] = {}

    # The parser reads token `self.i` from the parallel lists directly. The
    # last token is 'eof' and `i` never moves past it, so stepping over a
    # token, or looking one token ahead, is safe whenever the current token
    # is not 'eof'.

    def syntax_error(self, i: int, message: str) -> _Stop:
        """Records a ParseError at token `i`; the caller raises what this returns."""
        self.error = (ParseError, message, i)
        return _Stop()

    def unexpected(self, expected: str, i: int) -> _Stop:
        found = "end of input" if self.kinds[i] == "eof" else repr(self.texts[i])
        return self.syntax_error(i, f"expected {expected}, found {found}")

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
            self.error = (error_class, message, i)

    def lookup(self, i: int) -> int | None:
        name = self.texts[i]
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        self.fail(UnresolvedVariableError, f"undeclared variable {name!r}", i)
        return None

    def take_sets(self, nid: int) -> None:
        """Record what was read and written since the last call as the uses
        and definitions of node `nid`; the lists restart empty."""
        if self.reads:
            self.uses[nid] = self.reads
            self.reads = []
        if self.writes:
            self.defs[nid] = self.writes
            self.writes = []

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

    # ---- the method ----

    def parse_method(self) -> None:
        self.expect("int")
        name = self.texts[self.expect("ident")]
        root = FlowNode(0, NodeKind.METHOD, name + "()", exit=1)
        self.nodes += (root, FlowNode(1, NodeKind.EXIT, EXIT_TEXT))
        self.expect("(")
        scope: dict[str, int] = {}  # the parameters, in order
        if self.kinds[self.i] != ")":
            while True:
                self.expect("int")
                j = self.expect("ident")
                pname = self.texts[j]
                if pname in scope:
                    raise self.syntax_error(j, f"duplicate parameter {pname!r}")
                scope[pname] = len(scope)
                if self.kinds[self.i] != ",":
                    break
                self.i += 1
        self.expect(")")
        self.names += scope
        self.params = len(scope)
        if scope:
            self.defs[0] = list(scope.values())
        self.scopes.append(scope)
        root.stmts = self.parse_block()
        self.expect("eof")

    def finish(self) -> tuple[FlowGraph, DefUseAttr]:
        """The graph with its variable nodes, and the def/use sets as their ids.

        Each variable's id is one int object, shared by every set that
        holds it, and a set of one id is a one-element list.
        """
        nodes = self.nodes
        var_ids = list(range(len(nodes), len(nodes) + len(self.names)))
        for k, name in enumerate(self.names):
            nodes.append(FlowNode(var_ids[k], NodeKind.PARAM if k < self.params else NodeKind.VAR,
                                  name))
        nodes[0].vars = var_ids
        for table in (self.defs, self.uses):
            for nid, decls in table.items():
                if len(decls) == 1:
                    table[nid] = [var_ids[decls[0]]]
                else:  # duplicates dropped, first occurrence kept
                    table[nid] = list(dict.fromkeys([var_ids[d] for d in decls]))
        return FlowGraph(nodes), DefUseAttr(self.defs, self.uses)

    # ---- statements ----

    def parse_block(self) -> list[int]:
        """The node ids of the statements of a `{ ... }`, which opens a scope."""
        self.expect("{")
        self.scopes.append({})
        kinds = self.kinds
        stmts = []
        while (kind := kinds[self.i]) != "}":
            if kind == "eof":
                raise self.unexpected("'}'", self.i)
            stmts.append(self.parse_statement())
        self.i += 1
        self.scopes.pop()
        return stmts

    def parse_statement(self) -> int:
        """The statement at the current token, as the id of its node."""
        kinds = self.kinds
        nodes = self.nodes
        i = self.i
        kind = kinds[i]
        nid = len(nodes)  # a statement's node is the first it makes
        if kind == "int":
            self.i += 1
            name = self.texts[self.expect("ident")]
            self.expect("=")
            init = self.parse_expression()  # bound before the declared name is in scope
            self.expect(";")
            decl = len(self.names)
            self.names.append(name)
            self.scopes[-1][name] = decl
            self.writes.append(decl)  # a declaration defines its variable last
            nodes.append(FlowNode(nid, NodeKind.SIMPLE, "int " + name + " = " + init + ";"))
            self.take_sets(nid)
        elif kind == "{":
            node = FlowNode(nid, NodeKind.BLOCK, "{...}")
            nodes.append(node)
            node.stmts = self.parse_block()
        elif kind == "while" or kind == "if":
            # The condition makes no node, so the statement's node, and its
            # condition's Expr node after it, are made once it is read.
            self.i += 1
            self.expect("(")
            txt = self.parse_condition()
            self.expect(")")
            expr = nid + 1
            loop = kind == "while"
            # The label is a constant, not the token's text: one string for all
            node = FlowNode(nid, NodeKind.LOOP if loop else NodeKind.IF, "while" if loop else "if",
                            (), expr)
            nodes += (node, FlowNode(expr, NodeKind.EXPR, txt))
            self.take_sets(expr)
            self.scopes.append({})
            if loop:
                self.loop_depth += 1
                node.body = self.parse_statement()
                self.loop_depth -= 1
            else:
                node.then = self.parse_statement()
                if kinds[self.i] == "else":
                    self.i += 1
                    self.scopes[-1] = {}  # the else branch has a scope of its own
                    node.orelse = self.parse_statement()
            self.scopes.pop()
        elif kind == "return":
            self.i += 1
            txt = "return;" if kinds[self.i] == ";" else "return " + self.parse_condition() + ";"
            self.expect(";")
            nodes.append(FlowNode(nid, NodeKind.RETURN, txt))
            self.take_sets(nid)
        elif kind == "break" or kind == "continue":
            self.i += 1
            label = None
            if kinds[self.i] == "ident":
                label = self.texts[self.i]
                self.i += 1
            self.expect(";")
            self.check_jump(i, label)
            jump = NodeKind.BREAK if kind == "break" else NodeKind.CONTINUE
            nodes.append(FlowNode(nid, jump, kind, label=label))
        elif kind == "ident" and kinds[i + 1] == ":":
            self.i += 2
            name = self.texts[i]
            node = FlowNode(nid, NodeKind.LABEL, name + ":", label=name)
            nodes.append(node)
            self.labels.append((name, kinds[self.i] == "while"))
            node.stmt = self.parse_statement()
            self.labels.pop()
        else:
            txt = self.parse_expression() + ";"
            self.expect(";")
            nodes.append(FlowNode(nid, NodeKind.SIMPLE, txt))
            self.take_sets(nid)
        return nid

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
                    raise self.syntax_error(i, "integer literal is too long")
                i += 1
            elif kind == "(":
                self.i = i + 1  # where the error points if nesting runs out of stack
                text = self.parse_condition()
                i = self.expect(")") + 1
            elif kind == "++" or kind == "--":
                raise self.syntax_error(i, f"prefix '{kind}' is not supported")
            else:
                raise self.unexpected("an expression", i)
            kind = kinds[i]
            if kind == "++" or kind == "--":
                # A variable, maybe in parentheses: its label is its name,
                # and it was the last read
                if not text.isidentifier():
                    raise self.syntax_error(i, f"'{kind}' target must be a variable")
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


def parse_program(source: str) -> tuple[FlowGraph, DefUseAttr]:
    """Parse mini-Java source text into its flow graph and def/use sets.

    Raises ParseError on malformed input, or at the token where nesting
    runs the parser out of stack, and otherwise the first
    UnresolvedVariableError / UnresolvedLabelError /
    MissingEnclosingLoopError in source order.
    """
    parser = _Parser(tokenize(source))
    try:
        parser.parse_method()
    except _Stop:
        pass
    except RecursionError:
        # No later walk of the graph recurses as deep as the parser, so this bounds them all.
        parser.error = (ParseError, "nesting is too deep to analyze", parser.i)
    if parser.error is not None:
        # Raised outside the handlers, which would make every parser frame its
        # context, and positioned only now, at the top of the stack.
        error_class, message, i = parser.error
        raise error_class(message, *token_position(source, i))
    return parser.finish()
