"""One-call orchestration of the full analysis pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from . import minijava as mj
from .controlflow import EdgeTable, compute_cf_edges
from .dataflow import DfEdgeTable, compute_data_flow
from .defuse import DefUseAttr, compute_def_use
from .model import FlowGraph, TraceMap, build_flowgraph, collect_vars
from .textgen import compute_text


@dataclass
class Analysis:
    method: mj.Method
    text: dict[mj.Node, str]
    graph: FlowGraph
    trace: TraceMap
    var_map: dict[mj.Node, int]
    cf: EdgeTable
    def_use: DefUseAttr
    df: DfEdgeTable


def analyze(source: str) -> Analysis:
    """Parse source text and run every stage of the pipeline."""
    method = mj.parse_program(source)
    bindings = mj.resolve(method)
    text = compute_text(method)
    graph, trace = build_flowgraph(method, text)
    var_map = collect_vars(method, graph, trace)
    cf = compute_cf_edges(graph)
    def_use = compute_def_use(method, graph, trace, bindings, var_map)
    df = compute_data_flow(graph, cf, def_use)
    return Analysis(method, text, graph, trace, var_map, cf, def_use, df)
