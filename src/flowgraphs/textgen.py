"""Label constants, label lookup, and the AST printed back as source.

The parser stores every statement's and expression's label on the node
as it builds it (see `minijava`); `text_of` reads it back. The Exit node
has no AST node, so its fixed label lives here.
"""

from __future__ import annotations

from . import minijava as mj
from .minijava import OP_TEXT  # noqa: F401  re-exported with the other label constants

EXIT_TEXT = "Exit"


def text_of(node: mj.Node) -> str:
    """Label for one node."""
    return node.txt


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
