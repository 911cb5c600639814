"""Partition transfer graphs and their conjugation-symmetric core."""

__version__ = "0.1.0"

from .axial import (
    AxialGeometry,
    axial_geometry,
    central_region,
    compute_axis,
    compute_spine,
    interaction_graph,
    thick_spine,
)
from .graph import UNREACHABLE, PartitionGraph, Rows, bfs_distances, build_graph
from .invariants import (
    INVARIANTS,
    InvariantProfile,
    OracleInfeasibleError,
    all_profiles,
    local_clique_number,
    local_clique_number_oracle,
)
from .partitions import Partition, conjugate, enumerate_partitions, format_partition
from .pipeline import GraphAnalysis, analyze

__all__ = [
    "AxialGeometry",
    "GraphAnalysis",
    "INVARIANTS",
    "InvariantProfile",
    "OracleInfeasibleError",
    "Partition",
    "PartitionGraph",
    "Rows",
    "UNREACHABLE",
    "all_profiles",
    "analyze",
    "axial_geometry",
    "bfs_distances",
    "build_graph",
    "central_region",
    "compute_axis",
    "compute_spine",
    "conjugate",
    "enumerate_partitions",
    "format_partition",
    "interaction_graph",
    "local_clique_number",
    "local_clique_number_oracle",
    "thick_spine",
]
