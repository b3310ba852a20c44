"""One-call orchestration of the full analysis pipeline."""

from __future__ import annotations

from . import minijava as mj
from .dataflow import DfEdgeTable, compute_data_flow
from .model import DefUseAttr, EdgeTable, FlowGraph


class Analysis:
    def __init__(self, graph: FlowGraph, cf: EdgeTable, def_use: DefUseAttr,
                 df: DfEdgeTable) -> None:
        self.graph = graph
        self.cf = cf
        self.def_use = def_use
        self.df = df


def analyze(source: str) -> Analysis:
    """Parse source text into its flow graph, control flow and def/use sets,
    then compute data flow over them."""
    graph, cf, def_use = mj.parse_program(source)
    df = compute_data_flow(graph, cf, def_use)
    return Analysis(graph, cf, def_use, df)
