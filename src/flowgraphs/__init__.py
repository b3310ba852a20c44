"""Flow-graph models for a structured mini-Java subset.

Parses a single-method program into a language-independent flow-graph
model with its control-flow edges and per-instruction def/use sets,
computes reaching-definition data-flow edges, and checks the result against
`.validate` assertion documents.
"""

from .dataflow import DfEdgeTable, compute_data_flow
from .errors import FlowgraphsError
from .minijava import (
    MissingEnclosingLoopError,
    ParseError,
    UnresolvedLabelError,
    UnresolvedVariableError,
    parse_program,
)
from .model import DefUseAttr, EdgeTable, FlowGraph, NodeKind, flow_instructions
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
    "compute_data_flow",
    "emit_spec",
    "flow_instructions",
    "parse_program",
    "parse_spec",
]

__version__ = "0.1.0"
