"""Correctness checks on the CLI's outputs.

An op is correct when every command exits 0 and its output passes the
checks for its command:

* `dfg --json`: the node (kind, label) multiset equals the generator's,
  and every `dfNext` pair shares a variable that its source defines and
  its target uses. `dfNext` must also equal the expected edges, which
  come from the brute-force oracle (corpus programs of at most 25 flow
  instructions) or from the generator (scale and fanout, as a multiset
  of label pairs).
* `validate --emit`: its assertions are exactly the labeled `cfNext` and
  `dfNext` pairs of the graph.
* `validate --spec` on the emitted spec: exit 0 and an empty report.

Each check returns a failure reason, or None when the output is correct.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from workloads import Program

_ASSERTION_RE = re.compile(r'^(cfNext|dfNext) : "((?:[^"\\]|\\.)*)" --> "((?:[^"\\]|\\.)*)"$')


def _unquote(label: str) -> str:
    return re.sub(r"\\(.)", r"\1", label)


def check_dfg(program: Program, doc: dict, oracle: set | None) -> str | None:
    nodes = doc["nodes"]
    if [n["id"] for n in nodes] != list(range(len(nodes))):
        return "node ids are not 0..n-1 in order"
    got = Counter((n["kind"], n["txt"]) for n in nodes)
    if got != program.nodes:
        return f"node labels differ: extra {dict(got - program.nodes)}, missing {dict(program.nodes - got)}"
    for a, b in doc["cfNext"] + doc["dfNext"]:
        if not (0 <= a < len(nodes) and 0 <= b < len(nodes)):
            return f"edge {a}->{b} names no node"
    df = {(a, b) for a, b in doc["dfNext"]}
    if len(df) != len(doc["dfNext"]):
        return "duplicate dfNext edge"
    defs = {int(k): set(v) for k, v in doc["def"].items()}
    uses = {int(k): set(v) for k, v in doc["use"].items()}
    for a, b in df:
        if not defs.get(a, set()) & uses.get(b, set()):
            return f"dfNext {a}->{b} shares no variable"
    if oracle is not None and df != oracle:
        return f"dfNext differs from the oracle: {sorted(df ^ oracle)[:5]}"
    if program.df_labels is not None:
        labeled = Counter((nodes[a]["txt"], nodes[b]["txt"]) for a, b in df)
        if labeled != program.df_labels:
            diff = (labeled - program.df_labels) + (program.df_labels - labeled)
            return f"dfNext differs from the analytic edges: {sorted(diff)[:5]}"
    return None


def check_emit(doc: dict, spec: str) -> str | None:
    lines = spec.splitlines()
    if not lines or lines[0] != "validate m":
        return "emitted spec lacks its 'validate m' header"
    asserted: dict[str, set] = {"cfNext": set(), "dfNext": set()}
    for line in lines[1:]:
        m = _ASSERTION_RE.match(line)
        if m is None:
            return f"malformed assertion {line!r}"
        asserted[m.group(1)].add((_unquote(m.group(2)), _unquote(m.group(3))))
    txt = [n["txt"] for n in doc["nodes"]]
    for key in ("cfNext", "dfNext"):
        if asserted[key] != {(txt[a], txt[b]) for a, b in doc[key]}:
            return f"emitted {key} assertions differ from the graph"
    return None


def check_inverse(cf_next: dict, cf_prev: dict, cli_edges: list) -> str | None:
    """cfPrev is the exact inverse of cfNext, which is the CLI's relation."""
    forward = [(a, b) for a, bs in cf_next.items() for b in bs]
    backward = [(a, b) for b, as_ in cf_prev.items() for a in as_]
    if Counter(forward) != Counter(backward):
        return "cfNext and cfPrev are not inverses"
    if set(forward) != {(a, b) for a, b in cli_edges} or len(forward) != len(cli_edges):
        return "library cfNext differs from the CLI's"
    return None


def parse_json(stdout: str) -> dict | str:
    """The decoded document, or a failure reason."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"dfg output is not JSON: {exc}"
    if not isinstance(doc, dict) or not {"nodes", "cfNext", "dfNext", "def", "use"} <= doc.keys():
        return "dfg output lacks a key"
    return doc
