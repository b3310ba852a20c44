"""One direct test per text-attribution rule, fixed literals included.

The flow graph keeps an expression only as a label: a simple statement's,
or a condition's Expr node's. Each expression rule is read from those,
and the reference parser's expression node must carry the same label.
"""

import pytest

from flowgraphs.minijava import parse_program
from flowgraphs.model import EXIT_TEXT, FlowNode

import ref_parser
from helpers import first_statement


def source_of(body_src: str) -> str:
    return f"int m(int a, int b, int c) {{ {body_src} }}"


def stmt_of(body_src: str, *path: str) -> FlowNode:
    """The node of the first statement in `body_src`, or the node that the
    link fields in `path` lead to from it."""
    return first_statement(source_of(body_src), *path)[2]


def expr_label(expr_src: str) -> str:
    """The label of `expr_src`, from the statement `expr_src;`."""
    source = source_of(f"{expr_src};")
    txt = stmt_of(f"{expr_src};").txt
    assert txt == ref_parser.parse_program(source).body[0].expr.txt + ";"
    return txt.removesuffix(";")


def cond_label(stmt_src: str) -> str:
    """The label of the condition of `stmt_src`, a `while` or an `if`."""
    cond = stmt_of(stmt_src, "expr").txt
    assert cond == ref_parser.parse_program(source_of(stmt_src)).body[0].cond.txt
    return cond


def test_method_label():
    assert parse_program("int check() { return; }")[0].node(0).txt == "check()"


def test_local_var_decl_label():
    assert stmt_of("int x = 1;").txt == "int x = 1;"


def test_expr_stmt_label():
    assert stmt_of("a++;").txt == "a++;"


def test_assignment_label():
    assert expr_label("a = b") == "a = b"
    assert expr_label("a=b+1") == "a = b + 1"


def test_suffix_unary_labels():
    assert expr_label("a++") == "a++"
    assert expr_label("a--") == "a--"


def test_multiplicative_chain_label():
    assert expr_label("a * b / c") == "a * b / c"


def test_additive_chain_label():
    assert expr_label("a + b - c") == "a + b - c"


def test_relational_chain_label():
    assert cond_label("while (a < 3) a++;") == "a < 3"
    assert cond_label("while (a > b) a++;") == "a > b"


def test_equality_chain_label():
    assert cond_label("if (a == b) a++;") == "a == b"


def test_identifier_label():
    assert expr_label("a") == "a"


def test_int_literal_label():
    assert expr_label("42") == "42"


def test_while_fixed_label():
    assert stmt_of("while (a < 1) a++;").txt == "while"


def test_if_fixed_label():
    assert stmt_of("if (a < 1) a++;").txt == "if"


def test_block_fixed_label():
    assert stmt_of("{ a++; }").txt == "{...}"


def test_continue_fixed_label():
    assert stmt_of("while (a < 1) continue;", "body").txt == "continue"


def test_break_fixed_label():
    assert stmt_of("while (a < 1) break;", "body").txt == "break"


def test_labeled_jump_keeps_plain_label():
    jump = stmt_of("foo: while (a < 1) break foo;", "stmt", "body")
    assert (jump.txt, jump.label) == ("break", "foo")


def test_return_labels():
    assert stmt_of("return;").txt == "return;"
    assert stmt_of("return a;").txt == "return a;"
    assert stmt_of("return a + 1;").txt == "return a + 1;"


def test_label_statement_label():
    assert stmt_of("foo: a++;").txt == "foo:"


def test_exit_fixed_label():
    assert EXIT_TEXT == "Exit"


def test_int_type_marker_in_declaration():
    # the lone type rule surfaces as the "int " prefix of declarations
    assert stmt_of("int y = a;").txt.startswith("int ")


@pytest.mark.parametrize(
    "op,expected",
    [
        (ref_parser.Op.ASSIGN, " = "),
        (ref_parser.Op.MUL, " * "),
        (ref_parser.Op.ADD, " + "),
        (ref_parser.Op.DIV, " / "),
        (ref_parser.Op.SUB, " - "),
        (ref_parser.Op.EQ, " == "),
        (ref_parser.Op.GT, " > "),
        (ref_parser.Op.LT, " < "),
        (ref_parser.Op.INC, "++"),
        (ref_parser.Op.DEC, "--"),
    ],
)
def test_operator_spacing(op, expected):
    # Written unspaced; a suffix form has no right operand.
    right = "" if op in (ref_parser.Op.INC, ref_parser.Op.DEC) else "b"
    assert expr_label("a" + op.value + right) == "a" + expected + right
    assert ref_parser.OP_TEXT[op] == expected


def test_spacing_is_canonical():
    assert expr_label("a+1") == expr_label("a + 1") == "a + 1"


def test_fold_appends_operator_then_child():
    assert expr_label("1 + 2 + 3") == "1 + 2 + 3"
    assert expr_label("a + b * c") == "a + b * c"


def test_labels_of_nested_statements_and_expressions():
    source = "int m(int a) { while (a < 3) { a = a + 1; } return a; }"
    graph, _, _ = parse_program(source)
    # In parse order: the method, its exit, the loop and its condition, the
    # body and the statement in it, the return, and the parameter
    assert [node.txt for node in graph.nodes] == [
        "m()", "Exit", "while", "a < 3", "{...}", "a = a + 1;", "return a;", "a"]
    ref_loop = ref_parser.parse_program(source).body[0]
    assert (ref_loop.cond.txt, ref_loop.body.stmts[0].expr.txt) == ("a < 3", "a = a + 1")
