"""Flow-graph models for a structured mini-Java subset.

Parses a single-method program into a language-independent flow-graph
model with per-instruction def/use sets, computes control-flow edges and
reaching-definition data-flow edges, and checks the result against
`.validate` assertion documents.
"""

from .controlflow import EdgeTable, compute_cf_edges, flow_instructions
from .dataflow import DfEdgeTable, compute_data_flow
from .errors import FlowgraphsError
from .minijava import (
    MissingEnclosingLoopError,
    ParseError,
    UnresolvedLabelError,
    UnresolvedVariableError,
    parse_program,
)
from .model import DefUseAttr, FlowGraph, NodeKind
from .pipeline import Analysis, analyze
from .validator import (
    OrderError,
    ValidateSyntaxError,
    ValidationReport,
    ValidationSpec,
    check,
    emit_spec,
    parse_spec,
)

__all__ = [
    "Analysis",
    "DefUseAttr",
    "DfEdgeTable",
    "EdgeTable",
    "FlowGraph",
    "FlowgraphsError",
    "MissingEnclosingLoopError",
    "NodeKind",
    "OrderError",
    "ParseError",
    "UnresolvedLabelError",
    "UnresolvedVariableError",
    "ValidateSyntaxError",
    "ValidationReport",
    "ValidationSpec",
    "analyze",
    "check",
    "compute_cf_edges",
    "compute_data_flow",
    "emit_spec",
    "flow_instructions",
    "parse_program",
    "parse_spec",
]

__version__ = "0.1.0"
