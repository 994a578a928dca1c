"""Exact crossing numbers for simple graphs with a small vertex cover."""

from .drawing import (
    CombinatorialDrawing,
    crossing_count,
    equivalent,
    validate_good,
    zee,
)
from .graphs import (
    CompressedGraph,
    Graph,
    VertexCover,
    compress,
    expand,
    find_vertex_cover,
)
from .oracle import OracleConfig, oracle_cr
from .pipeline import PipelineOptions, crossing_number, initial_budget, lift, verify

__version__ = "0.1.0"

__all__ = [
    "CombinatorialDrawing",
    "CompressedGraph",
    "Graph",
    "OracleConfig",
    "PipelineOptions",
    "VertexCover",
    "compress",
    "crossing_count",
    "crossing_number",
    "equivalent",
    "expand",
    "find_vertex_cover",
    "initial_budget",
    "lift",
    "oracle_cr",
    "validate_good",
    "verify",
    "zee",
]
