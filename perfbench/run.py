"""Benchmark for the flowgraphs CLI.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all baseline.json    # every workload, fresh interpreters
    python3 perfbench/run.py --selftest              # tiny sizes, corrupted outputs

One run generates its workload's inputs from the seed, writes them as
`.mj` (and `.validate`) files, and calls `flowgraphs.cli.main` in process
in a closed loop (one client, one thread) for the given seconds. Every
output is checked (see checks.py); the last line printed is the result
as JSON. With `--trace 1` ops alternate between untraced and traced, and
the result holds the per-layer metrics instead of the end-to-end ones.
Run it from anywhere; it reads the program from `src/` next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
DEFAULT_SEED = 0
WORKLOADS = ("corpus", "scale", "fanout")
DIGEST_MISMATCH = "outputs differ from the pinned digest"
ORACLE_LIMIT = 25  # flow instructions; the oracle is exponential beyond
SIZES = {
    "full": {"corpus": {"count": 1000}, "scale": {"n_stmts": 10_000},
             "fanout": {"uses": 2500, "tail_vars": 800}, "import_repeats": 40},
    "tiny": {"corpus": {"count": 30}, "scale": {"n_stmts": 200},
             "fanout": {"uses": 50, "tail_vars": 20}, "import_repeats": 3},
}
LAYER_MAP = {
    "controlflow.self_s, controlflow.rss_growth_mb":
        "latency_p50_ms and peak_rss_mb on scale; nothing on corpus",
    "dataflow.self_s": "latency_p50_ms on fanout, a little on scale, nothing on corpus",
    "minijava.*, validator.self_s, cli.self_s":
        "ops_per_s and latency_p99_ms on corpus; only minijava moves scale or fanout, "
        "by its share of the time",
    "textgen.*, model.*, defuse.*": "small everywhere; fusing them shows mainly on corpus and scale",
    "<layer>.gc_s": "latency_p50_ms on scale",
}
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import flowgraphs.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import flowgraphs.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def run_cli(argv: list[str]) -> tuple[int | str, str, str]:
    import flowgraphs.cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = flowgraphs.cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.brute_force_df_edges


class Workload:
    """Inputs of one workload on disk, their ops, and the checks on outputs."""

    def __init__(self, name: str, seed: int, size: str, workdir: Path, corrupt=None):
        from flowgraphs.pipeline import analyze

        self.name = name
        self.corrupt = corrupt
        params = SIZES[size][name]
        if name == "corpus":
            self.programs = workloads.corpus(seed, **params)
        else:
            self.programs = [getattr(workloads, name)(seed, **params)]
        self.ops = []
        for program in self.programs:
            mj = workdir / f"{program.name}.mj"
            mj.write_text(program.source)
            cmds = [("dfg", ["dfg", str(mj), "--json"])]
            if name == "corpus":
                spec = workdir / f"{program.name}.validate"
                spec.write_text(run_cli(["validate", str(mj), "--emit"])[1])
                cmds += [("emit", ["validate", str(mj), "--emit"]),
                         ("spec", ["validate", str(mj), "--spec", str(spec)])]
            self.ops.append(cmds)
        self.oracle: dict[int, set | str] = {}
        if name == "corpus":
            oracle = load_oracle()
            for i, program in enumerate(self.programs):
                if program.flow_instructions <= ORACLE_LIMIT:
                    try:
                        a = analyze(program.source)
                        self.oracle[i] = oracle(a.graph, a.cf, a.def_use)
                    except Exception as exc:
                        self.oracle[i] = f"library analysis failed: {type(exc).__name__}: {exc}"
        self.verified: dict[int, tuple[str, ...]] = {}
        self.first_seen: dict[int, tuple[str, ...]] = {}
        self.sizes: dict[int, dict[str, int]] = {}
        self.cf_edges: list | None = None
        self.failures: list[str] = []
        self.kinds: Counter = Counter()  # failed checks by reason, without details

    def run(self, i: int) -> tuple[float, list]:
        t0 = time.perf_counter()
        outputs = [run_cli(argv) for _, argv in self.ops[i]]
        elapsed = time.perf_counter() - t0
        if self.corrupt is not None:
            outputs[0] = (outputs[0][0], self.corrupt(outputs[0][1]), outputs[0][2])
        return elapsed, outputs

    def check(self, i: int, outputs: list) -> bool:
        digests = tuple(hashlib.sha256(out.encode()).hexdigest() for _, out, _ in outputs)
        self.first_seen.setdefault(i, digests)
        if self.verified.get(i) == digests:
            return True
        reason = self._check(i, outputs)
        if reason is None and i in self.verified:
            reason = "output changed between runs of the same input"
        if reason is not None:
            self.fail(reason, self.programs[i].name)
            return False
        self.verified[i] = digests
        return True

    def fail(self, reason: str, where: str | None = None) -> None:
        self.kinds[reason.split(":")[0]] += 1
        if len(self.failures) < 5:
            self.failures.append(f"{where}: {reason}" if where else reason)

    def _check(self, i: int, outputs: list) -> str | None:
        program = self.programs[i]
        for (cmd, _), (code, _, err) in zip(self.ops[i], outputs):
            if code != 0:
                return f"{cmd} exited {code!r}: {err[:200]!r}"
        _, out, err = outputs[0]
        doc = checks.parse_json(out)
        if isinstance(doc, str):
            return doc
        oracle = self.oracle.get(i)
        if isinstance(oracle, str):
            return oracle
        reason = checks.check_dfg(program, doc, oracle)
        if reason is None and self.name == "corpus":
            reason = checks.check_emit(doc, outputs[1][1]) or (
                f"spec report not clean: {outputs[2][1][:200]!r}" if outputs[2][1] else None)
        if reason is None:
            self.cf_edges = self.cf_edges or doc["cfNext"]
            self.sizes[i] = {
                "minijava.tokens": program.tokens * len(outputs),
                "model.nodes": len(doc["nodes"]),
                "controlflow.cf_edges": len(doc["cfNext"]),
                "defuse.uses": sum(len(v) for v in doc["use"].values()),
                "dataflow.df_edges": len(doc["dfNext"]),
                "dataflow.warnings": err.count("warning:"),
                "validator.assertions": len(outputs[1][1].splitlines()) - 1 if len(outputs) > 1 else 0,
                "cli.output_bytes": sum(len(out) for _, out, _ in outputs),
            }
        return reason

    def post_checks(self, size: str, seed: int):
        """Checks after the timed loop; yields one failure reason or None each."""
        if self.name == "scale" and self.cf_edges is not None:
            from flowgraphs.pipeline import analyze

            try:
                a = analyze(self.programs[0].source)
                yield checks.check_inverse(a.cf.cf_next, a.cf.cf_prev, self.cf_edges)
            except Exception as exc:
                yield f"library analysis failed: {type(exc).__name__}: {exc}"
        pins = json.loads((HERE / "digests.json").read_text())
        want = pins.get(size, {}).get(self.name, {}).get(str(seed))
        if want is not None:
            yield None if want == self.digest() else f"{DIGEST_MISMATCH}: seed {seed}"

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.programs)):
            h.update("".join(self.first_seen.get(i, ("missing",))).encode())
        return h.hexdigest()


def source_lines(layer: str) -> int:
    path = SRC / "flowgraphs" / f"{layer}.py"
    return len(path.read_text().splitlines()) if path.is_file() else 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 corrupt=None) -> dict:
    import tracer as tracing  # imports the program, which main() put on the path

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base))
    try:
        work = Workload(name, seed, size, workdir, corrupt)
        tracer = tracing.Tracer() if trace else None
        first = tracing.Tracer() if trace else None  # the warm-up op's, for rss_growth_mb
        attempted = failed = 0
        plain, traced, imports = [], [], []
        totals: dict[str, float] = {}

        def attempt(i: int, via: tracing.Tracer | None = None) -> float:
            nonlocal attempted, failed
            if via is None:
                elapsed, outputs = work.run(i)
            else:
                with via:
                    elapsed, outputs = work.run(i)
            attempted += 1
            if not work.check(i, outputs):
                failed += 1
            elif via is tracer is not None:
                for key, value in work.sizes[i].items():
                    totals[key] = totals.get(key, 0) + value
            return elapsed

        # Warm-up, not timed: lazy imports and caches. Traced, so that the
        # first rise of the peak RSS is charged to layers.
        attempt(0, first)
        # Set-up is sampled between ops across the whole timed window, so
        # that it sees the same drift in machine speed as the ops. The first
        # import, not counted, writes the bytecode cache, as an installed
        # package would have it.
        repeats = 0 if trace else SIZES[size]["import_repeats"]
        if repeats:
            import_seconds()
        # With tracing, each input runs twice in a row, untraced then traced,
        # so both sides of the overhead see the same inputs.
        reps = 2 if trace else 1
        n = len(work.programs) * reps
        start = time.perf_counter()
        deadline = start + seconds
        k = 0
        while time.perf_counter() < deadline or k < n:  # at least one pass over the inputs
            # Every probe that is due, so that they stay evenly spaced when ops are long.
            while (len(imports) < repeats
                   and len(imports) * seconds <= repeats * (time.perf_counter() - start)):
                imports.append(import_seconds())
            if k % reps:
                traced.append(attempt(k % n // reps, tracer))
            else:
                plain.append(attempt(k % n // reps))
            k += 1
        while len(imports) < repeats:
            imports.append(import_seconds())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for reason in work.post_checks(size, seed):
            attempted += 1
            if reason is not None:
                failed += 1
                work.fail(reason)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            base.rmdir()

    if trace:
        ops = max(len(traced), 1)
        metrics = {}
        for layer, stats in tracer.layers.items():
            metrics[f"{layer}.self_s"] = (stats.self_s / ops, "s/op")
            if layer != "other":
                metrics[f"{layer}.calls"] = (stats.calls / ops, "calls/op")
                metrics[f"{layer}.gc_s"] = (stats.gc_s / ops, "s/op")
                growth = stats.rss_growth_mb + first.layers[layer].rss_growth_mb
                metrics[f"{layer}.rss_growth_mb"] = (growth, "MB")
                metrics[f"{layer}.lines"] = (source_lines(layer), "count")
        for key in ("minijava.tokens", "model.nodes", "controlflow.cf_edges", "defuse.uses",
                    "dataflow.df_edges", "dataflow.warnings", "validator.assertions",
                    "cli.output_bytes"):
            metrics[key] = (totals.get(key, 0) / ops, "count/op")
        minijava_s = tracer.layers["minijava"].self_s
        metrics["minijava.tokens_per_s"] = (
            totals.get("minijava.tokens", 0) / minijava_s if minijava_s else 0.0, "1/s")
        metrics["trace.total_s"] = (tracer.total_s / ops, "s/op")
        # Each traced op follows an untraced op on the same input.
        paired = [t - p for p, t in zip(plain, traced)]
        metrics["trace.overhead_ms"] = (statistics.median(paired) * 1000 if paired else 0.0, "ms")
    else:
        p99 = statistics.quantiles(plain, n=100, method="inclusive")[98] if len(plain) > 1 else plain[0]
        metrics = {
            "setup_s": (statistics.median(imports), "s"),
            "latency_p50_ms": (statistics.median(plain) * 1000, "ms"),
            "latency_p99_ms": (p99 * 1000, "ms"),
            "ops_per_s": (len(plain) / sum(plain), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "samples": len(traced) + len(plain),
        "digest": work.digest(),
        "failures": work.failures,
        "failure_kinds": work.kinds,
    }


def report(result: dict, out=sys.stdout) -> None:
    """Human-readable lines, then the result object as the last line."""
    for key, metric in result["metrics"].items():
        print(f"{key:32} {metric['value']:14.6f} {metric['unit']}", file=out)
    ratio = result["failed"] / result["attempted"]
    print(f"{'samples':32} {result['samples']:14d}", file=out)
    print(f"{'fail_ratio':32} {ratio:14.6f} failed/attempted", file=out)
    print(f"{'digest':32} {result['digest']}", file=out)
    for failure in result["failures"]:
        print(f"failure: {failure}", file=out)
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: result[key] for key in keys}), file=out)


def run_all(out_path: Path, seed: int, seconds: float) -> int:
    """Each workload, untraced then traced, each in a fresh interpreter."""
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    doc = {"seed": seed, "seconds": seconds, "python": sys.version.split()[0],
           "machine": f"{platform.platform()}, {os.cpu_count()} CPUs",
           "layer_map": LAYER_MAP, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = {"why": why[name]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            sys.stdout.write(f"== {name} trace={trace}\n{proc.stdout}{proc.stderr}")
            if proc.returncode != 0:
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            status |= not result["correct"]
            entry[key] = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            entry[key + "_fail_ratio"] = result["failed"] / result["attempted"]
        if "per_layer" in entry:
            entry["self_s_sum"] = round(sum(v for k, v in entry["per_layer"].items()
                                            if k.endswith(".self_s")), 6)
        doc["workloads"][name] = entry
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    return status


def _rewrite(edit):
    """A corruption: the `dfg --json` output with `edit` applied to its
    document, printed back the way the CLI prints it."""
    def corrupt(stdout: str) -> str:
        doc = json.loads(stdout)
        edit(doc)
        return json.dumps(doc) + "\n"
    return corrupt


def _drop_df(doc: dict) -> None:
    doc["dfNext"] = doc["dfNext"][:-1]


def _relabel(doc: dict) -> None:
    doc["nodes"][-1]["txt"] += "x"


def _reorder(doc: dict) -> None:
    doc["dfNext"][:2] = doc["dfNext"][1::-1]


def selftest() -> int:
    """Tiny runs: every metric name with its unit, no failure on clean
    outputs, and a raised fail_ratio on each kind of corrupted output,
    failed by the check meant to catch it. Dropped edges and changed labels
    run at a seed without a pinned digest, so that the oracle, analytic and
    label checks must catch them. A reordered dfNext list keeps the edge
    set, so it runs at the pinned seed, where only the digest catches it;
    rewriting an output unchanged must pass there, so the rewrite itself
    changes no byte."""
    pins = json.loads((HERE / "digests.json").read_text())["tiny"]
    ok = True
    names: dict[str, str] = {}
    for name in WORKLOADS:
        unpinned = next(s for s in range(1, 100) if str(s) not in pins.get(name, {}))
        dropped = "dfNext differs from the " + ("oracle" if name == "corpus" else "analytic edges")
        for seed, trace in ((DEFAULT_SEED, False), (DEFAULT_SEED, True), (unpinned, False)):
            result = run_workload(name, seed, 0, trace, "tiny")
            names.update((k, v["unit"]) for k, v in result["metrics"].items())
            clean = result["failed"] == 0 and result["correct"]
            ok &= clean
            print(f"{name:7} seed={seed} trace={int(trace)} clean outputs: failed "
                  f"{result['failed']}/{result['attempted']} {'ok' if clean else 'FAIL'}")
            for failure in result["failures"]:
                print(f"  {failure}")
        for label, edit, seed, want in (
                ("rewrite unchanged", lambda doc: None, DEFAULT_SEED, None),
                ("drop a dfNext edge", _drop_df, unpinned, dropped),
                ("change a label", _relabel, unpinned, "node labels differ"),
                ("reorder dfNext", _reorder, DEFAULT_SEED, DIGEST_MISMATCH)):
            result = run_workload(name, seed, 0, False, "tiny", _rewrite(edit))
            kinds = result["failure_kinds"]
            if want is None:
                passed = result["failed"] == 0 and result["correct"]
            elif want == DIGEST_MISMATCH:
                passed = result["failed"] > 0 and set(kinds) == {want}
            else:
                passed = result["failed"] > 0 and want in kinds and DIGEST_MISMATCH not in kinds
            ok &= passed
            verdict = ("ok" if passed else "FAIL") if want is None else (
                f"caught by {want!r}" if passed else "MISSED")
            print(f"{name:7} seed={seed} {label}: fail_ratio {result['failed']}/"
                  f"{result['attempted']} {dict(kinds)} {verdict}")
    print("metrics:")
    for key, unit in names.items():
        print(f"  {key} [{unit}]")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", metavar="OUT", type=Path,
                        help="run every workload in fresh interpreters and write OUT")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (SRC / "flowgraphs" / "cli.py").is_file() or not ORACLE.is_file():
        print(f"error: the program's sources are missing under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        return selftest()
    if args.all:
        return run_all(args.all, args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
