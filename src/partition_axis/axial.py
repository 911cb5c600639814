"""Symmetric core of a partition graph: axis, mediators, spine, filtrations.

The axis is the fixed-point set of conjugation (the self-conjugate
partitions). Two axis vertices interact when they share a common
neighbor; those common neighbors are mediators, and the spine is the
axis together with all mediators. Distances to the axis and to the
spine stratify the vertex set into shells.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from .graph import UNREACHABLE, PartitionGraph, bfs_distances
from .partitions import conjugate, enumerate_partitions


AxialPair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class AxialGeometry:
    """Axis-derived structure of one partition graph.

    For axisless n (only n = 2) the axis, mediators, spine and shells are
    empty and every distance is UNREACHABLE.
    """

    axis: frozenset[int]
    mediators: dict[AxialPair, frozenset[int]]
    spine: frozenset[int]
    ax_dist: tuple[int, ...]
    sp_dist: tuple[int, ...]
    ax_shells: tuple[int, ...]
    sp_shells: tuple[int, ...]

    @property
    def is_axial(self) -> bool:
        return bool(self.axis)


def compute_axis(g: PartitionGraph) -> frozenset[int]:
    """The self-conjugate vertices, lambda = lambda': the fixed points of
    conjugation, built from their parts and found by binary search in
    the descending vertex order.

    A self-conjugate lambda with Durfee square d x d is d + mu_i in rows
    i <= d, for a partition mu of (n - d^2)/2 into at most d parts, and
    mu' below the square; every such mu gives one. So the axis is built
    from the partitions of (n - d^2)/2, a vanishing share of p(n), and
    no vertex is transposed.
    """
    vertices = g.vertices
    axis = []
    for d in range(1, isqrt(g.n) + 1):
        half, odd = divmod(g.n - d * d, 2)
        if odd:
            continue
        for mu in enumerate_partitions(half) if half else [b""]:
            if len(mu) > d:
                continue
            parts = bytes(d + x for x in mu.ljust(d, b"\0")) + conjugate(mu)
            # vertices descend, so `vertices[i] <= parts` turns True at parts
            axis.append(bisect_left(range(len(vertices)), True, key=lambda i: vertices[i] <= parts))
    return frozenset(axis)


def interaction_graph(
    g: PartitionGraph, axis: frozenset[int]
) -> dict[AxialPair, frozenset[int]]:
    """Common-neighbor relation on the axis.

    Maps each unordered axis pair (a, b) with a < b to its nonempty set
    of mediators N(a) & N(b); non-interacting pairs are absent. Distinct
    axis vertices are never adjacent, so mediators are automatically
    off-axis; an axial mediator raises ValueError rather than being
    filtered. N(a) is read off the cliques through a.
    """
    neighbor_sets = {a: {v for k in g.vertex_cliques[a] for v in g.cliques[k]} - {a} for a in axis}
    pairs: dict[AxialPair, frozenset[int]] = {}
    for a, b in combinations(sorted(axis), 2):
        common = neighbor_sets[a] & neighbor_sets[b]
        if common:
            if common & axis:
                raise ValueError(f"axial mediator for pair ({a},{b})")
            pairs[(a, b)] = frozenset(common)
    return pairs


def compute_spine(
    axis: frozenset[int], mediators: dict[AxialPair, frozenset[int]]
) -> frozenset[int]:
    """Axis plus every mediator of an interacting axial pair."""
    return axis.union(*mediators.values())


def _shell_histogram(dist: tuple[int, ...]) -> tuple[int, ...]:
    top = max(dist)
    counts = [0] * (top + 1)
    for d in dist:
        if d != UNREACHABLE:
            counts[d] += 1
    return tuple(counts)


def axial_geometry(g: PartitionGraph) -> AxialGeometry:
    """Compute the full axial structure of g in one pass."""
    axis = compute_axis(g)
    mediators = interaction_graph(g, axis)
    spine = compute_spine(axis, mediators)
    ax_dist = tuple(bfs_distances(g, axis))
    sp_dist = tuple(bfs_distances(g, spine))
    return AxialGeometry(
        axis=axis,
        mediators=mediators,
        spine=spine,
        ax_dist=ax_dist,
        sp_dist=sp_dist,
        ax_shells=_shell_histogram(ax_dist),
        sp_shells=_shell_histogram(sp_dist),
    )


def _ball(dist: tuple[int, ...], r: int) -> frozenset[int]:
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    return frozenset(v for v, d in enumerate(dist) if 0 <= d <= r)


def central_region(geometry: AxialGeometry, r: int) -> frozenset[int]:
    """Vertices within distance r of the axis; r=0 gives the axis itself."""
    return _ball(geometry.ax_dist, r)


def thick_spine(geometry: AxialGeometry, r: int) -> frozenset[int]:
    """Vertices within distance r of the spine; r=0 gives the spine itself."""
    return _ball(geometry.sp_dist, r)
