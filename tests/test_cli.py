import ast
import json
import os
import re
import subprocess
import sys

import pytest

import flowgraphs
from flowgraphs.cli import _HELP, _USAGE, _dot_listing, _json_text
from flowgraphs.dataflow import DfEdgeTable, compute_data_flow
from flowgraphs.errors import FlowgraphsError
from flowgraphs.minijava import parse_program
from flowgraphs.model import DefUseAttr, FlowGraph, FlowNode, NodeKind
from flowgraphs.pipeline import Analysis, analyze

import progen
import ref_walks
from helpers import CORPUS, CORPUS_DIR, TESTS_DIR, golden, jump_sources, random_sources, run_cli

EX01 = str(CORPUS_DIR / "ex01_min.mj")
EX02 = str(CORPUS_DIR / "ex02_straight.mj")
EX09 = str(CORPUS_DIR / "ex09_labeled.mj")
EX10 = str(CORPUS_DIR / "ex10_unary_loop.mj")
SRC_DIR = TESTS_DIR.parent / "src"


def fresh_env() -> dict[str, str]:
    """The environment for `python -m flowgraphs` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def test_build_listing_minimal():
    code, out, _ = run_cli(["build", EX01])
    assert code == 0
    assert out == golden("ex01_min.build.txt")


def test_build_listing_full():
    code, out, _ = run_cli(["build", EX09])
    assert code == 0
    assert out == golden("ex09_labeled.build.txt")


def assert_build_matches_reference(source: str):
    code, out, _ = run_cli(["build", "-"], source)
    assert code == 0
    assert out == ref_walks.listing(parse_program(source)[0]) + "\n"


def test_build_matches_reference():
    for path in CORPUS:
        assert_build_matches_reference(path.read_text())
    for source in random_sources():
        assert_build_matches_reference(source)
    # Deep enough to list each shape's containment chain, shallow enough
    # for the recursive reference: braced whiles take two frames a level.
    for shape in progen.NESTING:
        for depth in (1, 2, 300):
            assert_build_matches_reference(progen.nested_program([shape] * depth))


def called_names(function: ast.FunctionDef) -> set[str]:
    """The names `function` calls as `name(...)` or `self.name(...)`."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(function) if isinstance(call, ast.Call)
            and (isinstance(call.func, ast.Name) or isinstance(call.func, ast.Attribute)
                 and isinstance(call.func.value, ast.Name) and call.func.value.id == "self")}


def test_nothing_recurses():
    # No function in the package is on a call cycle, so no depth of input
    # runs it out of stack.
    recursive = set()
    for path in sorted((SRC_DIR / "flowgraphs").glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
        calls = {name: called_names(f) & functions.keys() for name, f in functions.items()}
        for name in functions:
            reached, todo = set(), list(calls[name])
            while todo:
                callee = todo.pop()
                if callee not in reached:
                    reached.add(callee)
                    todo += calls[callee]
            if name in reached:
                recursive.add(f"{path.stem}.{name}")
    assert recursive == set()


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_cfg_matches_golden(path):
    code, out, _ = run_cli(["cfg", str(path)])
    assert code == 0
    assert out == golden(path.stem + ".cfg.txt")


@pytest.mark.parametrize("name", ["ex03_while", "ex04_if_else", "ex10_unary_loop"])
def test_dfg_text_output(name):
    code, out, _ = run_cli(["dfg", str(CORPUS_DIR / (name + ".mj"))])
    assert code == 0
    assert out == golden(name + ".dfg.txt")


def assert_well_formed_dot(text: str, want_dashed: bool):
    lines = text.strip().splitlines()
    assert lines[0] == "digraph flowgraph {"
    assert lines[-1] == "}"
    node_re = re.compile(r'^  "(?P<id>(?:[^"\\]|\\.)*)" \[label="(?:[^"\\]|\\.)*"\];$')
    edge_re = re.compile(
        r'^  "(?P<a>(?:[^"\\]|\\.)*)" -> "(?P<b>(?:[^"\\]|\\.)*)"(?: \[style=dashed\])?;$'
    )
    declared = set()
    edges = []
    for line in lines[1:-1]:
        node = node_re.match(line)
        if node:
            declared.add(node.group("id"))
            continue
        edge = edge_re.match(line)
        assert edge, f"unparseable DOT line: {line!r}"
        edges.append(edge)
    assert declared and edges
    for edge in edges:
        assert edge.group("a") in declared and edge.group("b") in declared
    assert all("#" in d for d in declared)
    if want_dashed:
        assert any("style=dashed" in e.group(0) for e in edges)


def test_cfg_dot_output():
    code, out, _ = run_cli(["cfg", EX10, "--dot"])
    assert code == 0
    assert_well_formed_dot(out, want_dashed=False)
    assert "style=dashed" not in out


def test_dfg_dot_output():
    code, out, _ = run_cli(["dfg", EX10, "--dot"])
    assert code == 0
    assert_well_formed_dot(out, want_dashed=True)


def test_dot_ids_disambiguate_duplicate_labels(tmp_path):
    src = tmp_path / "dup.mj"
    src.write_text("int m(int a) { if (a < 1) { a++; } else { a++; } }\n")
    code, out, _ = run_cli(["cfg", str(src), "--dot"])
    assert code == 0
    assert '"a++;#0" [label="a++;"];' in out
    assert '"a++;#1" [label="a++;"];' in out


def test_cfg_json_schema():
    code, out, _ = run_cli(["cfg", EX02, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"nodes", "cfNext", "dfNext", "def", "use"}
    assert doc["dfNext"] == [] and doc["def"] == {} and doc["use"] == {}
    by_id = {n["id"]: n for n in doc["nodes"]}
    for a, b in doc["cfNext"]:
        assert a in by_id and b in by_id
    kinds = {n["kind"] for n in doc["nodes"]}
    assert {"Method", "Exit", "SimpleStmt"} <= kinds


def test_dfg_json_schema():
    code, out, _ = run_cli(["dfg", EX10, "--json"])
    assert code == 0
    doc = json.loads(out)
    by_id = {n["id"]: n for n in doc["nodes"]}
    assert doc["dfNext"], "expected data-flow edges"
    for a, b in doc["dfNext"]:
        assert a in by_id and b in by_id
    for table in ("def", "use"):
        for nid, var_ids in doc[table].items():
            assert int(nid) in by_id
            for vid in var_ids:
                assert by_id[vid]["kind"] in ("Var", "Param")


def assert_json_matches_reference(source: str):
    analysis = analyze(source)
    for command, with_df in (("cfg", False), ("dfg", True)):
        code, out, _ = run_cli([command, "-", "--json"], source)
        assert code == 0
        assert out == json.dumps(ref_walks.json_doc(analysis, with_df)) + "\n"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_json_matches_reference_on_corpus(path):
    assert_json_matches_reference(path.read_text())


def test_json_matches_reference_on_random_programs():
    for source in random_sources():
        assert_json_matches_reference(source)


def escaping_analysis() -> Analysis:
    """A hand-built analysis whose labels mini-Java cannot produce: quotes,
    backslashes, control characters, non-ASCII text and a lone surrogate."""
    labels = ['say "hi";', "a\\b;", "tab\t nul\x00 bell\x07 del\x7f;", "caf\u00e9 \u2211 \U0001f600;",
              "\u2028 \ud800 </script>;"]
    first = 2
    nodes = [FlowNode(0, NodeKind.METHOD, 'm"()', stmts=list(range(first, first + len(labels))),
                      exit=1, vars=[first + len(labels)]),
             FlowNode(1, NodeKind.EXIT, "EXIT \\ \"")]
    nodes += [FlowNode(first + k, NodeKind.SIMPLE, label) for k, label in enumerate(labels)]
    var = len(nodes)
    nodes.append(FlowNode(var, NodeKind.VAR, "v\u00e9\\"))
    graph = FlowGraph(nodes)
    # Keys out of id order: the document sorts them.
    du = DefUseAttr(defs={first + 2: [var], first: [var]}, uses={first + 4: [var], first + 3: [var]})
    cf = ref_walks.compute_cf_edges(graph)
    return Analysis(graph, cf, du, compute_data_flow(graph, cf, du))


def test_json_escapes_labels_as_json_dumps_does():
    analysis = escaping_analysis()
    assert analysis.df.edges()
    assert _json_text(analysis) == json.dumps(ref_walks.json_doc(analysis, True))
    # `fg cfg` writes an analysis with empty def/use and data-flow tables.
    control_flow = Analysis(analysis.graph, analysis.cf, DefUseAttr(), DfEdgeTable())
    assert _json_text(control_flow) == json.dumps(ref_walks.json_doc(analysis, False))


def test_parsed_labels_need_no_json_escape(monkeypatch):
    # `_json_text` escapes labels only for a document that needs it, which no
    # parsed program's does. Were one to, every document would be escaped.
    def escape(text):
        raise AssertionError(f"escaped {text!r}")

    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", escape)
    sources = [*(path.read_text() for path in CORPUS), *random_sources(), *jump_sources(),
               *(build(200) for build in progen.SHAPES.values())]
    for source in sources:
        _json_text(analyze(source))
    with pytest.raises(AssertionError, match="escaped"):
        _json_text(escaping_analysis())


def test_dot_quotes_ids_and_labels_as_validate_does():
    # Only `\` and `"` are escaped; every other character is written as is.
    analysis = escaping_analysis()
    tab = "tab\t nul\x00 bell\x07 del\x7f;"
    uni = "caf\u00e9 \u2211 \U0001f600;"
    odd = "\u2028 \ud800 </script>;"
    assert _dot_listing(analysis.graph, analysis.cf.edges(), analysis.df.edges()) == [
        'digraph flowgraph {',
        r'  "m\"()#0" [label="m\"()"];',
        r'  "EXIT \\ \"#0" [label="EXIT \\ \""];',
        r'  "say \"hi\";#0" [label="say \"hi\";"];',
        r'  "a\\b;#0" [label="a\\b;"];',
        f'  "{tab}#0" [label="{tab}"];',
        f'  "{uni}#0" [label="{uni}"];',
        f'  "{odd}#0" [label="{odd}"];',
        r'  "m\"()#0" -> "say \"hi\";#0";',
        r'  "say \"hi\";#0" -> "a\\b;#0";',
        rf'  "a\\b;#0" -> "{tab}#0";',
        f'  "{tab}#0" -> "{uni}#0";',
        f'  "{uni}#0" -> "{odd}#0";',
        rf'  "{odd}#0" -> "EXIT \\ \"#0";',
        f'  "{tab}#0" -> "{uni}#0" [style=dashed];',
        f'  "{tab}#0" -> "{odd}#0" [style=dashed];',
        '}',
    ]


BOM = "\ufeff"  # a UTF-8 byte-order mark, as some editors write one


def test_program_file_byte_order_mark_is_ignored(tmp_path):
    plain, with_bom = CORPUS_DIR / "ex03_while.mj", tmp_path / "bom.mj"
    with_bom.write_text(BOM + plain.read_text(), encoding="utf-8")
    expected = run_cli(["dfg", str(plain)])
    assert expected[0] == 0
    assert run_cli(["dfg", str(with_bom)]) == expected


def test_spec_file_byte_order_mark_is_ignored(tmp_path):
    # A spec of another program, so that the report has findings.
    spec = run_cli(["validate", EX02, "--emit"])[1]
    plain, with_bom = tmp_path / "plain.validate", tmp_path / "bom.validate"
    plain.write_text(spec, encoding="utf-8")
    with_bom.write_text(BOM + spec, encoding="utf-8")
    expected = run_cli(["validate", EX10, "--spec", str(plain), "--json"])
    assert expected[0] == 1
    assert run_cli(["validate", EX10, "--spec", str(with_bom), "--json"]) == expected


def test_stdin_byte_order_mark_is_ignored():
    source = "int m(int a) { return a; }\n"
    expected = run_cli(["cfg", "-"], stdin_text=source)
    assert expected[0] == 0
    assert run_cli(["cfg", "-"], stdin_text=BOM + source) == expected
    spec = run_cli(["validate", EX02, "--emit"])[1]
    expected = run_cli(["validate", EX10, "--spec", "-"], stdin_text=spec)
    assert expected[0] == 1
    assert run_cli(["validate", EX10, "--spec", "-"], stdin_text=BOM + spec) == expected


@pytest.mark.parametrize("data,code", [
    (BOM.encode() + (CORPUS_DIR / "ex03_while.mj").read_bytes(), 0),
    (b"int m() { return; } // \xff\n", 2),  # not UTF-8
    (b"int m() { // a lone CR ends a line\rreturn; }\n", 0),
], ids=["byte-order mark", "invalid byte", "lone carriage return"])
def test_stdin_reads_as_a_file_whatever_the_locale(tmp_path, data, code):
    # A locale codec other than UTF-8 must not change what stdin reads.
    program = tmp_path / "program.mj"
    program.write_bytes(data)
    env = dict(fresh_env(), PYTHONIOENCODING="latin-1")

    def fg(path, stdin):
        proc = subprocess.run([sys.executable, "-m", "flowgraphs", "cfg", path], input=stdin,
                              capture_output=True, env=env, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    by_path = fg(str(program), b"")
    assert by_path[0] == code
    assert fg("-", data) == by_path


def test_stdin_input():
    code, out, _ = run_cli(["cfg", "-"], stdin_text="int m() { return; }")
    assert code == 0
    assert out == "m() --> return;\nreturn; --> Exit\n"


def test_outputs_are_reproducible():
    first = run_cli(["dfg", EX09])
    second = run_cli(["dfg", EX09])
    assert first == second


def test_parse_error_exit_2():
    code, out, err = run_cli(["cfg", "-"], stdin_text="int m( { }")
    assert code == 2
    assert out == ""
    assert "fg: error:" in err


def test_missing_file_exit_2():
    code, _, err = run_cli(["cfg", "no-such-file.mj"])
    assert code == 2
    assert "fg: error:" in err


# (argv, the message after `fg: error:`); the messages argparse also gave keep its wording.
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["frobnicate", EX01],
     "argument command: invalid choice: 'frobnicate' (choose from 'build', 'cfg', 'dfg', 'validate')"),
    (["cfg", EX01, "--wat"], "unrecognized arguments: --wat"),
    (["cfg", EX01, "--js"], "unrecognized arguments: --js"),  # no abbreviations
    (["build", EX01, "--dot"], "unrecognized arguments: --dot"),
    (["cfg", EX01, "--dot", "--json"], "argument --json: not allowed with argument --dot"),
    (["dfg", "--json", EX01, "--dot"], "argument --dot: not allowed with argument --json"),
    (["validate", EX01, "--spec"], "argument --spec: expected one argument"),
    (["validate", EX01, "--spec", "--json"], "argument --spec: expected one argument"),
    (["cfg", EX01, EX02], f"unrecognized arguments: {EX02}"),
    (["cfg", "--dot"], "the following arguments are required: file"),
    (["validate", EX01], "validate requires --spec (or --emit)"),
    (["validate", "-", "--spec=-"], "program and spec cannot both come from stdin"),
    # --emit writes a spec: it neither checks one nor reports as JSON
    (["validate", EX01, "--emit", "--json"], "argument --json: not allowed with argument --emit"),
    (["validate", "--json", EX01, "--emit"], "argument --emit: not allowed with argument --json"),
    (["validate", EX01, "--emit", "--spec", "/nonexistent"],
     "argument --spec: not allowed with argument --emit"),
    (["validate", "--spec=x.validate", EX01, "--emit"],
     "argument --emit: not allowed with argument --spec"),
    # an empty spec path is no path, in either form
    (["validate", EX01, "--spec="], "argument --spec: expected one argument"),
    (["validate", "--spec", "", EX01], "argument --spec: expected one argument"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_exit_2(argv, message):
    assert run_cli(argv) == (2, "", f"{_USAGE}\nfg: error: {message}\n")


def test_usage_lists_every_command():
    # Both come from one module constant; the help adds the notes under the usage.
    assert _USAGE.startswith("usage: fg build ")
    assert _HELP.startswith(_USAGE + "\n\n`-` reads the program")
    for command in ("build", "cfg", "dfg", "validate"):
        assert f"fg {command} " in _USAGE
    readme = (TESTS_DIR.parent / "README.md").read_text()
    assert f"$ python -m flowgraphs --help\n{_HELP}```" in readme


def test_usage_survives_optimize_flag():
    # `python -OO` drops docstrings, so the usage must live elsewhere.
    def fg(*argv):
        proc = subprocess.run([sys.executable, "-OO", "-m", "flowgraphs", *argv],
                              capture_output=True, text=True, env=fresh_env(), timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    assert fg("--help") == (0, _HELP, "")
    assert fg("frobnicate", "x") == (2, "", f"{_USAGE}\nfg: error: argument command: invalid choice: "
                                            "'frobnicate' (choose from 'build', 'cfg', 'dfg', 'validate')\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["cfg", "-h"], ["validate", EX01, "--help"]])
def test_help_exit_0(argv):
    assert run_cli(argv) == (0, _HELP, "")


def test_missing_file_message():
    assert run_cli(["cfg", "no-such-file.mj"]) == (
        2, "", "fg: error: [Errno 2] No such file or directory: 'no-such-file.mj'\n")


def test_option_forms_are_equivalent(tmp_path):
    # An option before or after the file, and --spec with its value in one word.
    assert run_cli(["cfg", "--json", EX10]) == run_cli(["cfg", EX10, "--json"])
    spec = tmp_path / "ex02.validate"
    spec.write_text(run_cli(["validate", EX02, "--emit"])[1])
    expected = run_cli(["validate", EX10, "--spec", str(spec), "--json"])
    assert expected[0] == 1
    assert run_cli(["validate", f"--spec={spec}", "--json", EX10]) == expected
    assert run_cli(["validate", EX10, "--spec="])[0:2] == (2, "")


def test_closed_output_pipe_exits_141_quietly(tmp_path):
    # The listing is larger than a pipe holds, so `fg` is still writing when
    # the reader closes its end after one line.
    program = tmp_path / "big.mj"
    program.write_text(progen.gen_scale(1, 2_000))
    proc = subprocess.Popen([sys.executable, "-m", "flowgraphs", "cfg", str(program)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
                            env=fresh_env())
    assert proc.stdout.readline().startswith(b"m() --> ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_unknown_flag_exit_2():
    code, _, _ = run_cli(["cfg", EX01, "--wat"])
    assert code == 2


def test_unknown_command_exit_2():
    code, _, _ = run_cli(["frobnicate", EX01])
    assert code == 2


def test_break_outside_loop_exit_2():
    code, _, err = run_cli(["cfg", "-"], stdin_text="int m() { break; }")
    assert code == 2
    assert "fg: error: 1:" in err
    assert "enclosing" in err


def test_overlong_integer_literal_exit_2():
    # More digits than int() converts: a ParseError at the literal, not a traceback.
    code, out, err = run_cli(["dfg", "-"], stdin_text="int m() { return " + "9" * 5_000 + "; }")
    assert code == 2
    assert out == ""
    assert err == "fg: error: 1:18: integer literal is too long\n"


def test_pathological_nesting_exit_2():
    # A syntax error at the bottom of 100,000 nested blocks is reported at its
    # line:col, as anywhere else.
    depth = 100_000
    source = "int m(int a) { " + "{ " * depth + "a++ " + "} " * depth + "}"
    code, out, err = run_cli(["cfg", "-"], stdin_text=source)
    assert (code, out) == (2, "")
    assert err == f"fg: error: 1:{20 + 2 * depth}: expected ';', found '}}'\n"


# The statements one level of each NESTING shape adds: else-ifs add an `if`
# and its empty block, braced whiles a `while` and its block.
LEVEL_STATEMENTS = {"blocks": 1, "whiles": 1, "braced whiles": 2, "ifs": 1, "else-ifs": 2,
                    "labels": 1, "assignments": 0, "parentheses": 0}


def every_command(tmp_path) -> list[list[str]]:
    """The argv of each command and output format, less the program path."""
    spec = tmp_path / "any.validate"
    spec.write_text("validate t\n")
    return [["build"], ["cfg"], ["dfg"], ["dfg", "--json"], ["dfg", "--dot"],
            ["validate", "--emit"], ["validate", "--spec", str(spec)]]


@pytest.mark.parametrize("shape", progen.NESTING)
def test_every_nesting_shape_parses_at_any_depth(shape, tmp_path):
    # Nothing recurses, so depth costs no stack: 10,000 levels, ten times
    # the default recursion limit, go through `analyze` and `fg`.
    source = progen.nested_program([shape] * 10_000)
    analysis = analyze(source)
    assert progen.count_statements(analysis.graph) == 1 + LEVEL_STATEMENTS[shape] * 10_000
    assert run_cli(["dfg", "-", "--json"], source) == (0, _json_text(analysis) + "\n", "")
    source = progen.nested_program([shape] * 2_000)
    for argv in every_command(tmp_path):
        code, _, err = run_cli([argv[0], "-", *argv[1:]], source)
        assert code == (1 if "--spec" in argv else 0), (argv, err)


@pytest.mark.parametrize("shape", progen.NESTING)
def test_nesting_past_the_stack_is_a_positioned_error(shape, tmp_path):
    # Nesting past what the interpreter's stack could hold is no error of its
    # own; an error inside it is, and every command reports it at its
    # line:col: here an undeclared name in the innermost statement.
    source = progen.nested_program([shape] * 2_000).replace("a++", "b++")
    want = f"fg: error: 1:{source.index('b++') + 1}: undeclared variable 'b'\n"
    for argv in every_command(tmp_path):
        assert run_cli([argv[0], "-", *argv[1:]], source) == (2, "", want), argv


def test_nesting_error_points_at_the_token_being_read():
    # Open groups are kept on a list, not on the stack, so an error 2,000
    # groups deep points at the token the scan was reading: an undeclared
    # name, or the `;` where a `)` is missing.
    depth = 2_000
    head = "int m(int a) {\nreturn " + "(1 + a + " * depth
    for inner, message, token in (("b" + ")" * depth, "undeclared variable 'b'", "b"),
                                  ("a" + ")" * (depth - 1), "expected ')', found ';'", ";")):
        source = head + inner + "; }"
        with pytest.raises(FlowgraphsError, match=re.escape(message)) as caught:
            analyze(source)
        assert caught.value.line == 2
        assert source.splitlines()[1][caught.value.column - 1] == token
        assert caught.value.__context__ is None  # which would hold the parser's frames


def test_dfg_prints_undefined_use_warning():
    code, out, err = run_cli(["dfg", "-"], stdin_text="int m(int a) { return; int x = a; }")
    assert code == 0
    assert "warning: no reaching definition for 'a' at 'int x = a;'" in err
    assert "warning" not in out


def test_cfg_prints_no_warning():
    # cfg and dfg share one command; only dfg reports undefined uses.
    code, out, err = run_cli(["cfg", "-"], stdin_text="int m(int a) { return; int x = a; }")
    assert code == 0
    assert out == "m() --> return;\nreturn; --> Exit\nint x = a; --> Exit\n"
    assert err == ""


def test_build_and_cfg_compute_no_data_flow(monkeypatch):
    # They print no data flow, so they stop at the parser: with data flow
    # made to fail, they still write what they wrote when they computed it.
    source = progen.many_vars(300)
    analysis = analyze(source)
    graph = analysis.graph
    dfg_dot = run_cli(["dfg", "-", "--dot"], source)[1].splitlines(keepends=True)
    want = {
        ("build",): ref_walks.listing(graph) + "\n",
        ("cfg",): "".join(f"{graph.node(a).txt} --> {graph.node(b).txt}\n"
                          for a, b in analysis.cf.edges()),
        ("cfg", "--dot"): "".join(line for line in dfg_dot if "[style=dashed]" not in line),
        ("cfg", "--json"): json.dumps(ref_walks.json_doc(analysis, False)) + "\n",
    }

    def no_data_flow(*args):
        raise AssertionError("data flow was computed")

    monkeypatch.setattr(flowgraphs.pipeline, "compute_data_flow", no_data_flow)
    monkeypatch.setattr(flowgraphs.dataflow, "compute_data_flow", no_data_flow)
    with pytest.raises(AssertionError, match="data flow was computed"):
        run_cli(["dfg", "-"], source)
    for argv, out in want.items():
        assert run_cli([argv[0], "-", *argv[1:]], source) == (0, out, ""), argv
    for path in CORPUS:
        assert run_cli(["cfg", str(path)]) == (0, golden(path.stem + ".cfg.txt"), "")
    for name in ("ex01_min", "ex09_labeled"):
        path = str(CORPUS_DIR / (name + ".mj"))
        assert run_cli(["build", path]) == (0, golden(name + ".build.txt"), "")


def test_validate_clean_exit_0(tmp_path):
    code, emitted, _ = run_cli(["validate", EX02, "--emit"])
    assert code == 0
    spec = tmp_path / "ex02.validate"
    spec.write_text(emitted)
    code, out, _ = run_cli(["validate", EX02, "--spec", str(spec)])
    assert code == 0
    assert out == ""


def test_validate_missing_link_exit_1(tmp_path):
    spec = tmp_path / "bad.validate"
    spec.write_text('validate t\ncfNext : "zz" --> "qq"\n')
    code, out, _ = run_cli(["validate", EX01, "--spec", str(spec)])
    assert code == 1
    lines = out.splitlines()
    assert "Control missing link: zz ==> qq" in lines
    assert sum("missing link:" in line for line in lines) == 1


def test_validate_spec_syntax_error_exit_2(tmp_path):
    spec = tmp_path / "broken.validate"
    spec.write_text("validate t\ncfNext ???\n")
    code, _, err = run_cli(["validate", EX01, "--spec", str(spec)])
    assert code == 2
    assert "fg: error:" in err


def test_validate_requires_spec():
    code, _, err = run_cli(["validate", EX01])
    assert code == 2
    assert "--spec" in err


def test_validate_spec_from_stdin():
    code, emitted, _ = run_cli(["validate", EX01, "--emit"])
    assert code == 0
    code, out, _ = run_cli(["validate", EX01, "--spec", "-"], stdin_text=emitted)
    assert code == 0 and out == ""


def test_validate_program_from_stdin(tmp_path):
    spec = tmp_path / "min.validate"
    spec.write_text(
        'validate t\ncfNext : "m()" --> "return;"\ncfNext : "return;" --> "Exit"\n'
    )
    code, out, _ = run_cli(
        ["validate", "-", "--spec", str(spec)], stdin_text="int m() { return; }"
    )
    assert code == 0 and out == ""


def test_validate_double_stdin_rejected():
    code, _, err = run_cli(["validate", "-", "--spec", "-"], stdin_text="x")
    assert code == 2
    assert "stdin" in err


def test_validate_json_report(tmp_path):
    spec = tmp_path / "one.validate"
    spec.write_text('validate t\ncfNext : "m()" --> "return;"\n')
    code, out, _ = run_cli(["validate", EX01, "--spec", str(spec), "--json"])
    assert code == 1
    doc = json.loads(out.splitlines()[-1])
    assert doc["false_cf"] == [["return;", "Exit"]]
    assert doc["missing_cf"] == []
    assert doc["warnings"] == []


def test_validate_json_report_is_one_exact_line(tmp_path):
    # Every finding list is non-empty, and the keys keep the report's order.
    spec = tmp_path / "all.validate"
    spec.write_text('validate t\ncfNext : "m()" --> "int x = a;"\n'
                    'cfNext : "a" --> "b"\ndfNext : "c" --> "d"\n')
    code, out, err = run_cli(["validate", "-", "--spec", str(spec), "--json"],
                             stdin_text="int m(int a) { int x = a; return x; int y = x; }")
    assert code == 1
    assert err == "warning: no reaching definition for 'x' at 'int y = x;'\n"
    lines = out.splitlines()
    assert len(lines) == 8 and not any(line.startswith("{") for line in lines[:-1])
    assert lines[-1] == (
        '{"false_cf": [["int x = a;", "return x;"], ["return x;", "Exit"], '
        '["int y = x;", "Exit"]], "false_df": [["m()", "int x = a;"], '
        '["int x = a;", "return x;"]], "missing_cf": [["a", "b"]], '
        '"missing_df": [["c", "d"]], '
        '"warnings": ["no reaching definition for \'x\' at \'int y = x;\'"]}')


def test_fg_color_toggles_ansi(tmp_path, monkeypatch):
    spec = tmp_path / "empty.validate"
    spec.write_text("validate t\n")
    monkeypatch.setenv("FG_COLOR", "1")
    code, out, _ = run_cli(["validate", EX01, "--spec", str(spec)])
    assert code == 1
    assert "\x1b[31m" in out
    monkeypatch.setenv("FG_COLOR", "0")
    code, out, _ = run_cli(["validate", EX01, "--spec", str(spec)])
    assert "\x1b[" not in out


def test_public_api_is_documented_in_readme():
    # Inline code spans and fenced code blocks both count as documentation.
    readme = (TESTS_DIR.parent / "README.md").read_text()
    documented = {word for span in re.findall(r"`+([^`]+)`+", readme)
                  for word in re.findall(r"\w+", span)}
    assert [name for name in flowgraphs.__all__ if name not in documented] == []
    # The names README lists as removed are gone from the package.
    removed = re.search(r"there\s+is\s+no\s+AST\.\s+So\s+(.*?)\s+are\s+no\s+longer\s+part", readme,
                        re.DOTALL)
    gone = re.findall(r"`(\w+)`", removed[1])
    assert "lower" in gone and "compute_cf_edges" in gone
    assert [name for name in gone if hasattr(flowgraphs, name)] == []


def test_repeated_calls_match_a_fresh_process():
    # Later calls, whatever ran before them, must behave as the first call
    # of a new process.
    cases = [
        ["dfg", EX10],
        ["validate", EX02, "--emit"],
        ["validate", EX01],  # no --spec
        ["frobnicate", EX01],
    ]
    fresh = []
    for argv in cases:
        proc = subprocess.run([sys.executable, "-m", "flowgraphs", *argv],
                              capture_output=True, text=True, env=fresh_env(), timeout=60)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2]
    for i in [0, 1, 2, 3, 3, 2, 1, 0, 2, 0, 3, 1]:
        assert run_cli(cases[i]) == fresh[i], cases[i]


def test_import_loads_no_dataclasses():
    # Start-up is most of a small program's run; `dataclasses`, with the
    # `inspect` it imports and the code it generates per class, tripled it,
    # and `json`, `typing` and `contextlib` took a third of what was left.
    # `-S` skips `site`, whose `.pth` files may import any of them first.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import flowgraphs.cli; print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC_DIR)],
                          capture_output=True, text=True, timeout=60, check=True)
    added = proc.stdout.split()
    assert "flowgraphs.cli" in added
    forbidden = ("dataclasses", "inspect", "argparse", "gettext", "json", "typing", "contextlib")
    assert [name for name in forbidden if name in added] == []
