"""One-call orchestration of the full analysis pipeline."""

from __future__ import annotations

from . import minijava as mj
from .controlflow import EdgeTable, compute_cf_edges
from .dataflow import DfEdgeTable, compute_data_flow
from .model import DefUseAttr, FlowGraph


class Analysis:
    def __init__(self, graph: FlowGraph, cf: EdgeTable, def_use: DefUseAttr,
                 df: DfEdgeTable) -> None:
        self.graph = graph
        self.cf = cf
        self.def_use = def_use
        self.df = df


def analyze(source: str) -> Analysis:
    """Parse source text into its flow graph and run every later stage on it."""
    graph, def_use = mj.parse_program(source)
    cf = compute_cf_edges(graph)
    df = compute_data_flow(graph, cf, def_use)
    return Analysis(graph, cf, def_use, df)
