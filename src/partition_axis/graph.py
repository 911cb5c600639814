"""The transfer graph on partitions of n.

Vertices are all partitions of n in reverse-lexicographic order, which
for the bytes form of a Partition is descending byte order; two
vertices are joined when one arises from the other by moving a single
unit between two distinct parts. The graph is stored as its clique
cover from Young's lattice (see build_graph): one clique per partition
of n-1, and for each vertex the cliques through it. The program reads
the cover; only the small-n clique oracle asks for sorted adjacency rows.
Conjugation permutes the vertices and preserves adjacency, so it is
stored alongside the graph as an index permutation, read off the cover:
it maps cliques onto cliques.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .partitions import Partition, enumerate_partitions

UNREACHABLE = -1


@dataclass(frozen=True, eq=False)
class PartitionGraph:
    """G_n as an edge-disjoint union of cliques.

    ``cliques[k]`` lists the members of clique k in ascending order, and
    ``vertex_cliques[u]`` the ids of the cliques through u, ascending. Two
    cliques share at most one vertex, so u's neighbours are the other
    members of its cliques, each met once.
    """

    n: int
    vertices: tuple[Partition, ...]
    conj: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...]
    vertex_cliques: tuple[tuple[int, ...], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(len(c) * (len(c) - 1) for c in self.cliques) // 2

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Every sorted neighbour row, built on first use and then kept."""
        cliques = self.cliques
        return tuple(
            tuple(sorted(v for k in ks for v in cliques[k] if v != u))
            for u, ks in enumerate(self.vertex_cliques)
        )


def build_graph(n: int) -> PartitionGraph:
    """Materialize the transfer graph for all partitions of n.

    Edges come from covers in Young's lattice (nu + e_j adds one cell in
    row j), not from per-vertex transfers:

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
    of its k runs, or a new part 1). A vertex lambda lies in the cliques
    of its lower covers, one per distinct part, so it is in k(lambda)
    cliques and has degree sum(|K| - 1) over them.

    Each nu is visited once, as ``lam[:-1]`` for the vertex ``lam`` that
    ends in 1; ``lam`` is nu's new-part cover, and the others are looked
    up in the index, each key built once from a bytearray copy of nu with
    one entry raised. A cell added higher up gives a lexicographically larger
    partition, so each clique comes out in ascending vertex order, and
    the new-part cover last. Clique ids follow nu in reverse-lex order,
    since appending a 1 keeps lexicographic order.

    Conjugation is read off the cover. Transposition is an involutive
    automorphism of Young's lattice, so it maps the upper covers of nu
    onto those of its conjugate nu', and the lower covers of lambda onto
    those of lambda', and both lists come out reversed:

    - nu's addable cells, by increasing row, have strictly decreasing
      columns; transposed, they are the addable cells of nu' by
      decreasing row. A clique lists its members by increasing row of
      the added cell, so ``cliques[k][m]`` maps to ``cliques[k'][-1 - m]``.
    - Removing a cell from a higher row of lambda gives a
      lexicographically smaller nu, hence a larger clique id, so
      ``vertex_cliques[u]`` lists lambda's removable cells by decreasing
      row, that is by increasing column. Transposed, those are the
      removable cells of lambda' by increasing row, so
      ``vertex_cliques[u][t]`` maps to ``vertex_cliques[conj[u]][-1 - t]``.

    The pass is anchored at conj[0] = p - 1, as (n) and (1^n) are
    conjugate, and sweeps u upward. Every lambda != (n) has a neighbour
    of smaller id: a unit moved from its last part onto its first gives
    a lexicographically larger partition. When that neighbour was swept,
    every clique through it was mapped, the one holding its edge to u
    too, so conj[u] is set when u is reached. The second law then names
    the image of each clique through u not mapped yet, and the first
    law pairs up the members of the two, both ways. Each clique is
    mapped once.
    """
    vertices = tuple(enumerate_partitions(n))
    index = {p: i for i, p in enumerate(vertices)}
    cliques = []
    vertex_cliques: list[tuple[int, ...]] = [()] * len(vertices)
    for lam, new_row in index.items():
        if lam[-1] != 1:
            continue
        nu = bytearray(lam)
        del nu[-1]
        k = len(cliques)
        clique = []
        above = 0
        for j, v in enumerate(nu):
            if v != above:
                nu[j] = v + 1
                u = index[bytes(nu)]
                nu[j] = v
                clique.append(u)
                vertex_cliques[u] += (k,)
            above = v
        clique.append(new_row)
        vertex_cliques[new_row] += (k,)
        cliques.append(tuple(clique))
    del index
    conj = [0] * len(vertices)
    conj[0], conj[-1] = len(vertices) - 1, 0
    mapped = bytearray(len(cliques))
    for u, ks in enumerate(vertex_cliques):
        images = vertex_cliques[conj[u]]
        for t, k in enumerate(ks):
            if mapped[k]:
                continue
            image = images[-1 - t]
            mapped[k] = mapped[image] = 1
            for v, w in zip(cliques[k], reversed(cliques[image])):
                conj[v] = w
                conj[w] = v
    return PartitionGraph(
        n=n,
        vertices=vertices,
        conj=tuple(conj),
        cliques=tuple(cliques),
        vertex_cliques=tuple(vertex_cliques),
    )


def bfs_distances(g: PartitionGraph, sources: Iterable[int]) -> list[int]:
    """Distance from each vertex to the nearest source, by multi-source BFS.

    Vertices not reachable from any source (in particular every vertex
    when ``sources`` is empty) get the UNREACHABLE sentinel, never 0.

    The search walks cliques, not rows: a clique is scanned once, when
    the first of its members is dequeued, and skipped after that. This
    labels every vertex as a row-scanning BFS does. Let x be the first
    dequeued neighbour of an unlabelled v, and K the one clique holding
    the edge xv. Had K been scanned before x was dequeued, its scanner
    would be a member dequeued earlier, and not v (never queued), so a
    neighbour of v dequeued before x; there is none. So x scans K and v
    gets dist(x) + 1, and no earlier scan can reach v, since its scanner
    would also be a neighbour dequeued before x. Each clique is read once
    and each vertex's clique list once.

    Distance is half the L1 distance of zero-padded part vectors. A
    transfer moves two coordinates by one, so no path is shorter. For
    lambda != mu, some i has lambda_i > mu_i and some j lambda_j < mu_j;
    as mu is nonincreasing, so do the last index of lambda's run through
    i and the first of its run through j. A unit moved from the one to
    the other is a transfer, keeps lambda sorted and lowers the L1
    distance by 2. Hence d((n), lambda) = n - lambda_1.
    """
    cliques, vertex_cliques = g.cliques, g.vertex_cliques
    dist = [UNREACHABLE] * g.num_vertices
    scanned = bytearray(len(cliques))
    queue: deque[int] = deque()
    for s in sorted(set(sources)):
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for k in vertex_cliques[u]:
            if scanned[k]:
                continue
            scanned[k] = 1
            for v in cliques[k]:
                if dist[v] == UNREACHABLE:
                    dist[v] = du
                    queue.append(v)
    return dist
