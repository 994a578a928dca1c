"""Exact crossing numbers for simple graphs with a small vertex cover."""

from .drawing import (
    CombinatorialDrawing,
    crossing_count,
    validate_good,
    zee,
)
from .graphs import (
    CompressedGraph,
    Graph,
    compress,
    expand,
    find_vertex_cover,
)
from .oracle import OracleConfig, oracle_cr
from .pipeline import PipelineOptions, crossing_number, initial_budget, verify

__version__ = "0.1.0"

__all__ = [
    "CombinatorialDrawing",
    "CompressedGraph",
    "Graph",
    "OracleConfig",
    "PipelineOptions",
    "compress",
    "crossing_count",
    "crossing_number",
    "expand",
    "find_vertex_cover",
    "initial_budget",
    "oracle_cr",
    "validate_good",
    "verify",
    "zee",
]
