"""One direct test per text-attribution rule, fixed literals included."""

import pytest

from flowgraphs import minijava as mj
from flowgraphs.minijava import OP_TEXT, parse_program
from flowgraphs.model import EXIT_TEXT


def stmt_of(body_src: str) -> mj.Statement:
    return parse_program(f"int m(int a, int b, int c) {{ {body_src} }}").body[0]


def expr_of(expr_src: str) -> mj.Expression:
    stmt = stmt_of(f"{expr_src};")
    return stmt.expr


def test_method_label():
    assert parse_program("int check() { return; }").txt == "check()"


def test_local_var_decl_label():
    assert stmt_of("int x = 1;").txt == "int x = 1;"


def test_expr_stmt_label():
    assert stmt_of("a++;").txt == "a++;"


def test_assignment_label():
    assert expr_of("a = b").txt == "a = b"
    assert expr_of("a=b+1").txt == "a = b + 1"


def test_suffix_unary_labels():
    assert expr_of("a++").txt == "a++"
    assert expr_of("a--").txt == "a--"


def test_multiplicative_chain_label():
    assert expr_of("a * b / c").txt == "a * b / c"


def test_additive_chain_label():
    assert expr_of("a + b - c").txt == "a + b - c"


def test_relational_chain_label():
    cond = stmt_of("while (a < 3) a++;").cond
    assert cond.txt == "a < 3"
    cond = stmt_of("while (a > b) a++;").cond
    assert cond.txt == "a > b"


def test_equality_chain_label():
    cond = stmt_of("if (a == b) a++;").cond
    assert cond.txt == "a == b"


def test_identifier_label():
    assert expr_of("a").txt == "a"


def test_int_literal_label():
    assert expr_of("42").txt == "42"


def test_while_fixed_label():
    assert stmt_of("while (a < 1) a++;").txt == "while"


def test_if_fixed_label():
    assert stmt_of("if (a < 1) a++;").txt == "if"


def test_block_fixed_label():
    assert stmt_of("{ a++; }").txt == "{...}"


def test_continue_fixed_label():
    loop = stmt_of("while (a < 1) continue;")
    assert loop.body.txt == "continue"


def test_break_fixed_label():
    loop = stmt_of("while (a < 1) break;")
    assert loop.body.txt == "break"


def test_labeled_jump_keeps_plain_label():
    loop = stmt_of("foo: while (a < 1) { break foo; }").stmt
    assert loop.body.stmts[0].txt == "break"


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
        (mj.Op.ASSIGN, " = "),
        (mj.Op.MUL, " * "),
        (mj.Op.ADD, " + "),
        (mj.Op.DIV, " / "),
        (mj.Op.SUB, " - "),
        (mj.Op.EQ, " == "),
        (mj.Op.GT, " > "),
        (mj.Op.LT, " < "),
        (mj.Op.INC, "++"),
        (mj.Op.DEC, "--"),
    ],
)
def test_operator_spacing(op, expected):
    assert OP_TEXT[op] == expected


def test_spacing_is_canonical():
    assert expr_of("a+1").txt == expr_of("a + 1").txt == "a + 1"


def test_fold_appends_operator_then_child():
    assert expr_of("1 + 2 + 3").txt == "1 + 2 + 3"
    assert expr_of("a + b * c").txt == "a + b * c"


def test_labels_of_nested_statements_and_expressions():
    method = parse_program("int m(int a) { while (a < 3) { a = a + 1; } return a; }")
    loop = method.body[0]
    assign = loop.body.stmts[0]
    nodes = (method, loop, loop.cond, loop.body, assign, assign.expr, method.body[1])
    assert [node.txt for node in nodes] == [
        "m()", "while", "a < 3", "{...}", "a = a + 1;", "a = a + 1", "return a;"]
