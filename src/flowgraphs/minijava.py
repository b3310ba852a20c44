"""Lexer and parser for the mini-Java subset; the parser builds the flow graph,
its control-flow edges and its def/use sets.

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
Statements are read in one loop, and each becomes its flow-graph node as
it is parsed: there is no AST. A statement that holds others stays open,
on an explicit stack, until the last one it holds ends. An expression is
read as its label, in one flat scan over its operands, operators and
parentheses, and leaves no node. Nothing recurses, so no depth is too deep.

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

Control-flow edges are made by backpatching as the parser goes. A flow
instruction gets its cfNext list when it is made, one slot per target,
None until the target exists. The slots that wait for the next flow
instruction are kept in one list, and the next one made fills them all,
so a statement falls through to the entry of the one after it:

- a simple statement's one slot waits, as does the Method's; a return
  goes to Exit;
- a loop's condition has the slots [continuation, body entry]. The body
  entry waits; what the body leaves waiting goes to the condition, so an
  empty body makes a self edge; then the continuation waits;
- an if's condition has the slots [then entry, else entry or
  continuation]. The then entry waits; what the then branch leaves
  waiting is set aside while the else branch parses, then joined back.
  Both slots get the same target only when both branches are empty, and
  then the edge is made once. An `else if` is an else branch that holds
  an if;
- a jump leaves nothing waiting. Loops and labels push a jump target
  (continue target, break slots) on the stack of their label, None for a
  loop: a loop (its condition, []), a label (the condition of the loop it
  wraps or None, []). A break or continue takes the innermost target of
  its own label's stack, so an unlabeled jump only matches a loop, in one
  step however many targets are open. A continue goes to the target's
  condition; a break's slot joins the target's list, which waits once the
  target statement ends;
- at the end of the method, whatever still waits goes to Exit.

cfPrev is built last, in one pass over cfNext in id order, so its
sources come in ascending id order.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import SourcePosError, line_col
from .model import EXIT_TEXT, DefUseAttr, EdgeTable, FlowGraph, FlowNode, NodeKind


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
    """The `line_col` of token `i` of `source`. It scans the source up to the token."""
    return line_col(source, next(islice(_TOKEN_RE.finditer(source), i, None)).start(1))


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
        self.visible: dict[str, int] = {}  # name -> the declaration index it has in scope
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
        # Flow instruction id -> its cfNext targets, None in a slot whose
        # target is not made yet; the slots, as (targets, index), that wait
        # for the next flow instruction made; and the open jump targets, as
        # label (None for a loop) -> its targets, innermost last, each a
        # (continue target or None, break slots).
        self.next: dict[int, list] = {}
        self.waiting: list[tuple[list, int]] = []
        self.jumps: dict[str | None, list[tuple[int | None, list[tuple[list, int]]]]] = {None: []}

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
        decl = self.visible.get(self.texts[i])
        if decl is None:
            self.fail(UnresolvedVariableError, f"undeclared variable {self.texts[i]!r}", i)
        return decl

    def take_sets(self, nid: int) -> None:
        """Record what was read and written since the last call as the uses
        and definitions of node `nid`; the lists restart empty."""
        if self.reads:
            self.uses[nid] = self.reads
            self.reads = []
        if self.writes:
            self.defs[nid] = self.writes
            self.writes = []

    def jump_target(self, i: int, label: str | None) -> tuple | None:
        """The jump target of the break or continue at token `i`, or None
        after recording the name error that it has none."""
        keyword = self.kinds[i]
        stack = self.jumps.get(label)
        target = stack[-1] if stack else None
        if target is None:
            if label is None:
                self.fail(MissingEnclosingLoopError, f"'{keyword}' has no enclosing loop", i)
            else:
                self.fail(UnresolvedLabelError, f"no enclosing label {label!r}", i)
        elif keyword == "continue" and target[0] is None:
            self.fail(MissingEnclosingLoopError, f"label {label!r} does not name a loop", i)
            return None
        return target

    # ---- control flow ----

    def fill(self, nid: int) -> None:
        """Every waiting slot goes to node `nid`; none is left waiting."""
        for targets, k in self.waiting:
            targets[k] = nid
        self.waiting.clear()

    def instruction(self, nid: int, targets: list, waits: int | None = None) -> list:
        """Makes node `nid` a flow instruction with cfNext `targets`: every
        waiting slot goes to it, and then its own slot `waits`, if given,
        is the one slot waiting. Returns `targets`."""
        self.fill(nid)
        if waits is not None:
            self.waiting.append((targets, waits))
        self.next[nid] = targets
        return targets

    # ---- the method ----

    def parse_method(self) -> None:
        self.expect("int")
        name = self.texts[self.expect("ident")]
        root = FlowNode(0, NodeKind.METHOD, name + "()", exit=1)
        self.nodes += (root, FlowNode(1, NodeKind.EXIT, EXIT_TEXT))
        self.instruction(0, [None], 0)
        self.expect("(")
        scope = self.visible  # the parameters, in order, until a local is declared
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
        self.parse_body(root)
        self.fill(1)  # the end of the method goes to Exit
        self.expect("eof")

    def finish(self) -> tuple[FlowGraph, EdgeTable, DefUseAttr]:
        """The graph with its variable nodes, its control-flow edges, and the
        def/use sets as the variables' ids.

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
        cf_prev: dict[int, list[int]] = {}
        for src, targets in self.next.items():  # in the order the nodes were made
            if len(targets) == 2 and targets[0] == targets[1]:
                del targets[1]  # an if whose branches both fall through: one edge
            for dst in targets:
                cf_prev.setdefault(dst, []).append(src)
        return FlowGraph(nodes), EdgeTable(self.next, cf_prev), DefUseAttr(self.defs, self.uses)

    # ---- statements ----

    def parse_body(self, root: FlowNode) -> None:
        """The method's `{ ... }`, as `root`'s statements, read in one loop.

        A statement that holds others is open, on `frames`, innermost last,
        until the last one it holds ends. Its frame keeps what it needs then:
        ("{", its statements, node id, the (name, declaration index it had
        before or None) of each declaration in it) for a block or the
        method's body; ("while", node, condition's targets); ("if", node,
        condition's targets) until the then branch ends, then ("else", node,
        the slots the then branch left waiting); (":", node, None). A loop's
        or label's break slots are in its jump target.
        """
        kinds, texts, nodes, visible = self.kinds, self.texts, self.nodes, self.visible
        self.expect("{")
        # The statements of the innermost open statement if it is a block, else None
        stmts = root.stmts = []
        frames: list[tuple] = [("{", stmts, 0, [])]
        while True:
            i = self.i
            kind = kinds[i]
            nid = len(nodes)  # a statement's node is the first it makes
            if (kind == "}" or kind == "eof") and stmts is not None:
                if kind == "eof":
                    raise self.unexpected("'}'", i)
                self.i = i + 1
                _, _, nid, declared = frames.pop()
                if not frames:  # the method's body
                    return
                for name, before in reversed(declared):  # the block's scope ends
                    if before is None:
                        del visible[name]
                    else:
                        visible[name] = before
                stmts = None  # the block has ended; what holds it is found below
            elif kind == "int":
                self.i += 1
                name = texts[self.expect("ident")]
                self.expect("=")
                init = self.parse_expression()  # bound before the declared name is in scope
                self.expect(";")
                decl = len(self.names)
                self.names.append(name)
                k = len(frames) - 1
                while frames[k][0] == ":":  # a label opens no scope
                    k -= 1
                # A loop body or branch that is a declaration is its own scope: nothing sees it.
                if frames[k][0] == "{":
                    frames[k][3].append((name, visible.get(name)))
                    visible[name] = decl
                self.writes.append(decl)  # a declaration defines its variable last
                nodes.append(FlowNode(nid, NodeKind.SIMPLE, "int " + name + " = " + init + ";"))
                self.take_sets(nid)
                self.instruction(nid, [None], 0)
            elif kind == "{":
                self.i += 1
                stmts = []
                nodes.append(FlowNode(nid, NodeKind.BLOCK, "{...}", stmts))
                frames.append(("{", stmts, nid, []))
                continue
            elif kind == "while" or kind == "if":
                loop = kind == "while"
                # The condition makes no node, so the statement's node, and
                # its condition's Expr node after it, are made once it is read.
                self.i += 1
                self.expect("(")
                txt = self.parse_condition()
                self.expect(")")
                # The label is a constant, not the token's text: one string for all
                node = FlowNode(nid, NodeKind.LOOP if loop else NodeKind.IF,
                                "while" if loop else "if", (), nid + 1)
                nodes += (node, FlowNode(nid + 1, NodeKind.EXPR, txt))
                self.take_sets(nid + 1)
                # [continuation, body entry] or [then entry, else entry or continuation]
                targets = self.instruction(nid + 1, [None, None], 1 if loop else 0)
                if loop:
                    self.jumps[None].append((nid + 1, []))
                frames.append(("while" if loop else "if", node, targets))
                stmts = None
                continue
            elif kind == "return":
                self.i += 1
                txt = "return;" if kinds[self.i] == ";" else "return " + self.parse_condition() + ";"
                self.expect(";")
                nodes.append(FlowNode(nid, NodeKind.RETURN, txt))
                self.take_sets(nid)
                self.instruction(nid, [1])  # to Exit
            elif kind == "break" or kind == "continue":
                self.i += 1
                label = None
                if kinds[self.i] == "ident":
                    label = texts[self.i]
                    self.i += 1
                self.expect(";")
                jump = NodeKind.BREAK if kind == "break" else NodeKind.CONTINUE
                nodes.append(FlowNode(nid, jump, kind, label=label))
                targets = self.instruction(nid, [None])
                target = self.jump_target(i, label)
                if target is not None and jump is NodeKind.BREAK:
                    target[1].append((targets, 0))
                elif target is not None:
                    targets[0] = target[0]
            elif kind == "ident" and kinds[i + 1] == ":":
                self.i += 2
                name = texts[i]
                node = FlowNode(nid, NodeKind.LABEL, name + ":", label=name)
                nodes.append(node)
                # A labeled loop's node comes right after the label's, and its condition's after that.
                loop_cond = nid + 2 if kinds[self.i] == "while" else None
                self.jumps.setdefault(name, []).append((loop_cond, []))
                frames.append((":", node, None))
                stmts = None
                continue
            else:
                txt = self.parse_expression() + ";"
                self.expect(";")
                nodes.append(FlowNode(nid, NodeKind.SIMPLE, txt))
                self.take_sets(nid)
                self.instruction(nid, [None], 0)
            if stmts is not None:
                stmts.append(nid)
                continue
            # Statement `nid` has ended, and with it every open statement it was the last of.
            while frames[-1][0] != "{":
                tag, node, slots = frames.pop()
                if tag == "while":
                    node.body = nid
                    self.fill(node.expr)  # the end of the body goes back to the condition
                    self.waiting = [(slots, 0), *self.jumps[None].pop()[1]]  # and its breaks wait
                elif tag == "if":
                    node.then = nid
                    if kinds[self.i] == "else":
                        self.i += 1
                        frames.append(("else", node, self.waiting))  # set aside
                        self.waiting = [(slots, 1)]
                        break
                    self.waiting.append((slots, 1))
                elif tag == "else":
                    node.orelse = nid
                    # The shorter list joins the longer, or nested ifs would
                    # copy their waiting slots once per level.
                    shorter, longer = sorted((slots, self.waiting), key=len)
                    longer += shorter
                    self.waiting = longer
                else:
                    node.stmt = nid
                    self.waiting += self.jumps[node.label].pop()[1]  # its breaks wait
                nid = node.id
            else:
                stmts = frames[-1][1]
                stmts.append(nid)

    # ---- expressions ----
    # An expression is read as its label. Assignments are legal only at
    # statement/initializer top level, so grouping parentheses, conditions
    # and return values go through parse_condition.

    def parse_expression(self) -> str:
        """The label of `target = ... = value`, with any number of targets;
        they are bound after the value, the innermost first."""
        kinds = self.kinds
        start = end = self.i
        while kinds[end] == "ident" and kinds[end + 1] == "=":
            end += 2
        if end == start:
            return self.parse_condition()
        self.i = end
        value = self.parse_condition()
        for i in range(end - 2, start - 1, -2):
            self.writes.append(self.lookup(i))
        return " = ".join(self.texts[start:end:2]) + " = " + value

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
        groups = []  # the index in `parts` of each open group's first part, innermost last
        i = self.i
        while True:
            kind = kinds[i]
            if kind == "ident":
                self.reads.append(self.lookup(i))
                parts.append(texts[i])
            elif kind == "num":
                try:
                    parts.append(str(int(texts[i])))  # canonical: "007" labels as "7"
                except ValueError:  # more digits than int() converts
                    raise self.syntax_error(i, "integer literal is too long")
            elif kind == "(":
                groups.append(len(parts))
                i += 1
                continue
            elif kind == "++" or kind == "--":
                raise self.syntax_error(i, f"prefix '{kind}' is not supported")
            else:
                raise self.unexpected("an expression", i)
            i += 1
            single = True  # the operand just read is one part of the label
            while True:  # one turn per group the operand ends
                kind = kinds[i]
                if kind == "++" or kind == "--":
                    # A variable, maybe in parentheses: its label is its name,
                    # and it was the last read
                    if not (single and parts[-1].isidentifier()):
                        raise self.syntax_error(i, f"'{kind}' target must be a variable")
                    self.writes.append(self.reads[-1])  # the variable is read, then written
                    parts[-1] += kind
                    i += 1
                    kind = kinds[i]
                op = _BINARY.get(kind)
                if op is not None:
                    parts.append(op)
                    i += 1
                    break
                if not groups:
                    self.i = i
                    return "".join(parts)
                if kind != ")":
                    raise self.unexpected("')'", i)
                single = len(parts) - groups.pop() == 1
                i += 1


def parse_program(source: str) -> tuple[FlowGraph, EdgeTable, DefUseAttr]:
    """Parse mini-Java source text into its flow graph, control-flow edges
    and def/use sets.

    Raises ParseError on malformed input, and otherwise the first
    UnresolvedVariableError / UnresolvedLabelError /
    MissingEnclosingLoopError in source order. Nothing recurses, so any
    depth of nesting parses, and the recursion limit has no effect.
    """
    parser = _Parser(tokenize(source))
    try:
        parser.parse_method()
    except _Stop:
        pass
    if parser.error is not None:
        # Raised outside the handler, which would make the _Stop, and the
        # parser frames of its traceback, this error's context.
        error_class, message, i = parser.error
        raise error_class(message, *token_position(source, i))
    return parser.finish()
