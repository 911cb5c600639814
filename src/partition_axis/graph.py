"""The transfer graph on partitions of n.

Vertices are all partitions of n in reverse-lexicographic order; two
vertices are joined when one arises from the other by moving a single
unit between two distinct parts. Conjugation permutes the vertices and
preserves adjacency, so it is stored alongside the graph as an index
permutation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .partitions import Partition, conjugate, enumerate_partitions, transfer_neighbors

UNREACHABLE = -1


@dataclass(frozen=True, eq=False)
class PartitionGraph:
    n: int
    vertices: tuple[Partition, ...]
    adjacency: tuple[tuple[int, ...], ...]
    conj: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2


def build_graph(n: int) -> PartitionGraph:
    """Materialize the transfer graph for all partitions of n.

    Adjacency lists are sorted ascending; parallel transfers to the same
    target collapse to one edge and self-images are excluded, so the
    graph is simple. The conjugation permutation is found by locating
    each vertex's conjugate in the enumeration index.
    """
    vertices = tuple(enumerate_partitions(n))
    index = {p: i for i, p in enumerate(vertices)}
    adjacency = tuple(
        tuple(sorted(index[m] for m in transfer_neighbors(p))) for p in vertices
    )
    conj = tuple(index[conjugate(p)] for p in vertices)
    return PartitionGraph(n=n, vertices=vertices, adjacency=adjacency, conj=conj)


def bfs_distances(g: PartitionGraph, sources: Iterable[int]) -> list[int]:
    """Distance from each vertex to the nearest source, by multi-source BFS.

    Vertices not reachable from any source (in particular every vertex
    when ``sources`` is empty) get the UNREACHABLE sentinel, never 0.
    """
    dist = [UNREACHABLE] * g.num_vertices
    queue: deque[int] = deque()
    for s in sorted(set(sources)):
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in g.adjacency[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du
                queue.append(v)
    return dist
