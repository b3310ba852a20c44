"""Synthesized text labels for AST nodes.

Every node that gets a flow-graph image (and every expression feeding
one) receives a display label, computed bottom-up. Structured statements
use fixed labels ("while", "if", "{...}", ...); simple statements and
expressions are serialized with one canonical spacing, so `a+1` and
`a + 1` in the source both label as "a + 1". These labels are the keys
the validation DSL matches on.
"""

from __future__ import annotations

from . import minijava as mj

OP_TEXT = {
    mj.Op.ASSIGN: " = ",
    mj.Op.MUL: " * ",
    mj.Op.ADD: " + ",
    mj.Op.DIV: " / ",
    mj.Op.SUB: " - ",
    mj.Op.EQ: " == ",
    mj.Op.GT: " > ",
    mj.Op.LT: " < ",
    mj.Op.INC: "++",
    mj.Op.DEC: "--",
}

EXIT_TEXT = "Exit"


def text_of(node: mj.Node) -> str:
    """Label for one node."""
    if isinstance(node, mj.Method):
        out = node.name + "()"
    elif isinstance(node, mj.LocalVarDecl):
        out = "int " + node.name + " = " + text_of(node.init) + ";"
    elif isinstance(node, mj.ExprStmt):
        out = text_of(node.expr) + ";"
    elif isinstance(node, mj.While):
        out = "while"
    elif isinstance(node, mj.If):
        out = "if"
    elif isinstance(node, mj.Return):
        out = "return;" if node.value is None else "return " + text_of(node.value) + ";"
    elif isinstance(node, mj.Break):
        out = "break"
    elif isinstance(node, mj.Continue):
        out = "continue"
    elif isinstance(node, mj.Labeled):
        out = node.name + ":"
    elif isinstance(node, mj.Block):
        out = "{...}"
    elif isinstance(node, mj.Assign):
        out = node.target + " = " + text_of(node.value)
    elif isinstance(node, mj.SuffixUnary):
        out = node.target + OP_TEXT[node.op]
    elif isinstance(node, mj.Chain):
        out = text_of(node.children[0])
        for op, child in zip(node.operators, node.children[1:]):
            out += OP_TEXT[op] + text_of(child)
    elif isinstance(node, mj.IdentRef):
        out = node.name
    elif isinstance(node, mj.IntLit):
        out = str(node.value)
    else:
        raise TypeError(f"no text rule for {type(node).__name__}")
    return out


def render_method(method: mj.Method) -> str:
    """Compose the AST back into parseable source text.

    Simple statements reuse their labels verbatim (they are complete
    statements); structured statements are rebuilt around their parts.
    Grouping parentheses are not reproduced, so the round trip is only
    structure-preserving for sources that never relied on them.
    """
    def stmt_src(s: mj.Statement) -> str:
        if isinstance(s, (mj.LocalVarDecl, mj.ExprStmt, mj.Return)):
            return text_of(s)
        if isinstance(s, mj.While):
            return "while (" + text_of(s.cond) + ") " + stmt_src(s.body)
        if isinstance(s, mj.If):
            out = "if (" + text_of(s.cond) + ") " + stmt_src(s.then)
            if s.orelse is not None:
                out += " else " + stmt_src(s.orelse)
            return out
        if isinstance(s, mj.Break):
            return "break" + (" " + s.label if s.label else "") + ";"
        if isinstance(s, mj.Continue):
            return "continue" + (" " + s.label if s.label else "") + ";"
        if isinstance(s, mj.Labeled):
            return s.name + ": " + stmt_src(s.stmt)
        if isinstance(s, mj.Block):
            return "{ " + " ".join(stmt_src(c) for c in s.stmts) + " }"
        raise TypeError(f"no source rule for {type(s).__name__}")

    params = ", ".join("int " + p.name for p in method.params)
    body = " ".join(stmt_src(s) for s in method.body)
    return "int " + method.name + "(" + params + ") { " + body + " }"
