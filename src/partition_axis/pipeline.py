"""One-stop per-n analysis: graph, axial geometry, invariant profiles.

Everything downstream (reports, exports, verification) consumes this
bundle. `analyze(n)` recomputes it on every call and keeps nothing, so a
range run holds one n's graph at a time; a caller that needs the result
twice should keep it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axial import AxialGeometry, axial_geometry
from .graph import PartitionGraph, build_graph
from .invariants import InvariantProfile, all_profiles


@dataclass(frozen=True, eq=False)
class GraphAnalysis:
    graph: PartitionGraph
    geometry: AxialGeometry
    profiles: dict[str, InvariantProfile]

    @property
    def n(self) -> int:
        return self.graph.n


def analyze(n: int) -> GraphAnalysis:
    g = build_graph(n)
    geometry = axial_geometry(g)
    return GraphAnalysis(graph=g, geometry=geometry, profiles=all_profiles(g, geometry))
