"""One analysis is freed by reference counting alone, and `fg` pauses the
cyclic collector for the one command it runs, then restores the caller's
setting."""

import gc
from contextlib import contextmanager

import pytest

from flowgraphs.cli import _json_text
from flowgraphs.pipeline import analyze

import progen
from helpers import CORPUS, CORPUS_DIR, run_cli

PROGRAMS = {path.stem: path.read_text() for path in CORPUS}
PROGRAMS["gen_scale"] = progen.gen_scale(1, 2_000)

EX09 = str(CORPUS_DIR / "ex09_labeled.mj")
# Five times as deep as the interpreter's default recursion limit
DEEP = "int m(int a) { " + "{ " * 5_000 + "a++; " + "} " * 5_000 + "}"
DEEP_CFG = "m() --> a++;\na++; --> Exit\n"


@contextmanager
def collector(enabled: bool):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("name", PROGRAMS)
def test_dropped_analysis_leaves_no_cyclic_garbage(name):
    # Collector off, so that no automatic pass frees a cycle before the count.
    with collector(enabled=False):
        gc.collect()
        _json_text(analyze(PROGRAMS[name]))
        assert gc.collect() == 0


def test_commands_leave_no_cyclic_garbage(tmp_path):
    spec = tmp_path / "ex09.validate"
    spec.write_text('validate t\ncfNext : "zz" --> "qq"\n')
    commands = [
        (["build", EX09], None),
        (["cfg", EX09, "--dot"], None),
        (["dfg", EX09], None),
        (["dfg", EX09, "--json"], None),
        (["validate", EX09, "--emit"], None),
        (["validate", EX09, "--spec", str(spec), "--json"], None),
        (["cfg", "-"], "int m() { x = 1; }"),  # a name error, raised after parsing
        (["cfg", "-"], "int m() { return 1 }"),  # a syntax error, raised after parsing stops
        (["cfg", "-"], "int m() { break; }"),
        (["cfg", "-"], DEEP),
    ]
    run_cli(["cfg", EX09])  # a first call, so that nothing built once per process counts
    with collector(enabled=False):
        for argv, stdin in commands:
            gc.collect()
            code, out, _ = run_cli(argv, stdin)
            assert gc.collect() == 0, argv
            if stdin is DEEP:
                assert (code, out) == (0, DEEP_CFG)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_restores_collector_setting(enabled, tmp_path):
    spec = tmp_path / "bad.validate"
    spec.write_text('validate t\ncfNext : "zz" --> "qq"\n')
    cases = [
        (["dfg", EX09, "--json"], None, 0, ""),
        (["validate", EX09, "--spec", str(spec)], None, 1, ""),
        (["cfg", "-"], "int m() { x = 1; }", 2, "undeclared variable"),
        (["validate", EX09], None, 2, "requires --spec"),
        (["frobnicate", EX09], None, 2, "invalid choice"),
        (["cfg", "-"], DEEP, 0, ""),
    ]
    with collector(enabled):
        for argv, stdin, want_code, want_err in cases:
            code, out, err = run_cli(argv, stdin)
            assert (code, gc.isenabled()) == (want_code, enabled), argv
            assert want_err in err
            if stdin is DEEP:
                assert (out, err) == (DEEP_CFG, "")
