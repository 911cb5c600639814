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

from .partitions import Partition, conjugate, enumerate_partitions

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

    Adjacency lists are sorted ascending and the graph is simple. Edges
    come from covers in Young's lattice (nu + e_j adds one cell in row
    j), not from per-vertex transfers:

    lambda != mu are adjacent exactly when both cover the same nu |- n-1.
    A transfer can take its unit from the last part of the donor size
    (index i) and give it to the first part of the receiver size, or to
    a new part (index j). Then nu = lambda - e_i is a partition, j is
    still the first index of its run in nu (a receiver one smaller than
    the donor would give back lambda), and mu = nu + e_j. Conversely,
    two covers nu + e_a != nu + e_b differ by moving a unit from part a
    to part b. In both directions nu is the componentwise minimum of the
    zero-padded pair, so each edge lies in exactly one nu's clique: G_n
    is the edge-disjoint union, over nu |- n-1, of the complete graphs
    on nu's k + 1 upper covers (a cell added at the first index of each
    of its k runs, or a new part 1).

    Each nu is visited once, as ``lam[:-1]`` for the vertex ``lam`` that
    ends in 1; ``lam`` is nu's new-part cover, and the others are looked
    up in the index. nu -> nu + (1,) keeps lexicographic order, so the
    nu are visited in reverse-lexicographic order. The lower covers of a
    vertex c remove a cell at the last index of a run of c; the smallest,
    hence visited last, is the one that lowers c's largest part. So c's
    row is complete, and is sorted and frozen, once nu = c - e_j is
    visited with c[j] == c[0]. Only the rows still open are held. The
    conjugation permutation is found by locating each vertex's conjugate
    in the index.
    """
    vertices = tuple(enumerate_partitions(n))
    index = {p: i for i, p in enumerate(vertices)}
    conj = tuple(index[conjugate(p)] for p in vertices)
    adjacency: list[tuple[int, ...]] = [()] * len(vertices)
    open_rows: dict[int, list[int]] = {}
    for lam, new_row in index.items():
        if lam[-1] != 1:
            continue
        nu = lam[:-1]
        top = nu[0] if nu else 0
        clique = []
        done = []
        above = 0
        for j, v in enumerate(nu):
            if v != above:
                u = index[nu[:j] + (v + 1,) + nu[j + 1 :]]
                clique.append(u)
                if v + 1 >= top:
                    done.append(u)
            above = v
        clique.append(new_row)
        if top <= 1:
            done.append(new_row)
        for k, u in enumerate(clique):
            row = open_rows.get(u)
            if row is None:
                open_rows[u] = clique[:k] + clique[k + 1 :]
            else:
                row += clique[:k]
                row += clique[k + 1 :]
        for u in done:
            adjacency[u] = tuple(sorted(open_rows.pop(u)))
    del index
    return PartitionGraph(n=n, vertices=vertices, adjacency=tuple(adjacency), conj=conj)


def bfs_distances(g: PartitionGraph, sources: Iterable[int]) -> list[int]:
    """Distance from each vertex to the nearest source, by multi-source BFS.

    Vertices not reachable from any source (in particular every vertex
    when ``sources`` is empty) get the UNREACHABLE sentinel, never 0.

    Distance is half the L1 distance of zero-padded part vectors. A
    transfer moves two coordinates by one, so no path is shorter. For
    lambda != mu, some i has lambda_i > mu_i and some j lambda_j < mu_j;
    as mu is nonincreasing, so do the last index of lambda's run through
    i and the first of its run through j. A unit moved from the one to
    the other is a transfer, keeps lambda sorted and lowers the L1
    distance by 2. Hence d((n), lambda) = n - lambda_1.
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
