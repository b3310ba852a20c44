"""One direct test per text-attribution rule, fixed literals included."""

import pytest

from flowgraphs import minijava as mj
from flowgraphs.minijava import parse_program
from flowgraphs.textgen import EXIT_TEXT, OP_TEXT, text_of


def stmt_of(body_src: str) -> mj.Statement:
    return parse_program(f"int m(int a, int b, int c) {{ {body_src} }}").body[0]


def expr_of(expr_src: str) -> mj.Expression:
    stmt = stmt_of(f"{expr_src};")
    return stmt.expr


def test_method_label():
    assert text_of(parse_program("int check() { return; }")) == "check()"


def test_local_var_decl_label():
    assert text_of(stmt_of("int x = 1;")) == "int x = 1;"


def test_expr_stmt_label():
    assert text_of(stmt_of("a++;")) == "a++;"


def test_assignment_label():
    assert text_of(expr_of("a = b")) == "a = b"
    assert text_of(expr_of("a=b+1")) == "a = b + 1"


def test_suffix_unary_labels():
    assert text_of(expr_of("a++")) == "a++"
    assert text_of(expr_of("a--")) == "a--"


def test_multiplicative_chain_label():
    assert text_of(expr_of("a * b / c")) == "a * b / c"


def test_additive_chain_label():
    assert text_of(expr_of("a + b - c")) == "a + b - c"


def test_relational_chain_label():
    cond = stmt_of("while (a < 3) a++;").cond
    assert text_of(cond) == "a < 3"
    cond = stmt_of("while (a > b) a++;").cond
    assert text_of(cond) == "a > b"


def test_equality_chain_label():
    cond = stmt_of("if (a == b) a++;").cond
    assert text_of(cond) == "a == b"


def test_identifier_label():
    assert text_of(expr_of("a")) == "a"


def test_int_literal_label():
    assert text_of(expr_of("42")) == "42"


def test_while_fixed_label():
    assert text_of(stmt_of("while (a < 1) a++;")) == "while"


def test_if_fixed_label():
    assert text_of(stmt_of("if (a < 1) a++;")) == "if"


def test_block_fixed_label():
    assert text_of(stmt_of("{ a++; }")) == "{...}"


def test_continue_fixed_label():
    loop = stmt_of("while (a < 1) continue;")
    assert text_of(loop.body) == "continue"


def test_break_fixed_label():
    loop = stmt_of("while (a < 1) break;")
    assert text_of(loop.body) == "break"


def test_labeled_jump_keeps_plain_label():
    loop = stmt_of("foo: while (a < 1) { break foo; }").stmt
    assert text_of(loop.body.stmts[0]) == "break"


def test_return_labels():
    assert text_of(stmt_of("return;")) == "return;"
    assert text_of(stmt_of("return a;")) == "return a;"
    assert text_of(stmt_of("return a + 1;")) == "return a + 1;"


def test_label_statement_label():
    assert text_of(stmt_of("foo: a++;")) == "foo:"


def test_exit_fixed_label():
    assert EXIT_TEXT == "Exit"


def test_int_type_marker_in_declaration():
    # the lone type rule surfaces as the "int " prefix of declarations
    assert text_of(stmt_of("int y = a;")).startswith("int ")


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
    assert text_of(expr_of("a+1")) == text_of(expr_of("a + 1")) == "a + 1"


def test_fold_appends_operator_then_child():
    assert text_of(expr_of("1 + 2 + 3")) == "1 + 2 + 3"
    assert text_of(expr_of("a + b * c")) == "a + b * c"


def test_compute_text_is_total_and_idempotent():
    method = parse_program("int m(int a) { while (a < 3) { a = a + 1; } return a; }")
    loop = method.body[0]
    assign = loop.body.stmts[0]
    nodes = (method, loop, loop.cond, loop.body, assign, assign.expr, method.body[1])
    first = [text_of(node) for node in nodes]
    assert first == [text_of(node) for node in nodes]
    assert first == ["m()", "while", "a < 3", "{...}", "a = a + 1;", "a = a + 1", "return a;"]
