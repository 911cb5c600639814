"""The transfer graph on partitions of n.

Vertices are all partitions of n in reverse-lexicographic order, which
for the bytes form of a Partition is descending byte order; two
vertices are joined when one arises from the other by moving a single
unit between two distinct parts. The graph is stored as its clique
cover from Young's lattice (see build_graph): one clique per partition
of n-1, and for each vertex the cliques through it, both as flat Rows.
The program reads the cover; only the small-n clique oracle asks for
sorted adjacency rows. Conjugation permutes the vertices and preserves
adjacency; it is read off the cover, which it maps onto itself, the
first time it is asked for.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from operator import sub
from typing import Iterable, Iterator

from .partitions import Partition, enumerate_partitions

UNREACHABLE = -1


class Rows:
    """A sequence of int rows stored flat in two ``array('i')``: row i is
    ``members[starts[i]:starts[i + 1]]``, read as a memoryview slice.

    Two arrays in place of a tuple per row: a member costs 4 bytes, not
    a pointer and an int object, and the garbage collector tracks none
    of it. A memoryview slice shares the array's buffer, where an array
    slice copies it, and iterates faster. The hot loops slice a
    memoryview of ``members`` themselves.
    """

    __slots__ = ("members", "starts")

    def __init__(self, members: array, starts: array) -> None:
        self.members = members
        self.starts = starts

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, i: int) -> memoryview:
        i = range(len(self))[i]  # IndexError out of range, as for a tuple
        starts = self.starts
        return memoryview(self.members)[starts[i] : starts[i + 1]]

    def __iter__(self) -> Iterator[memoryview]:
        members, bounds = memoryview(self.members), iter(self.starts)
        lo = next(bounds)
        for hi in bounds:
            yield members[lo:hi]
            lo = hi


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
    cliques: Rows
    vertex_cliques: Rows

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        starts = self.cliques.starts
        return sum(s * (s - 1) for s in map(sub, islice(starts, 1, None), starts)) // 2

    @cached_property
    def incidence_sizes(self) -> bytes:
        """|K| for each clique K, laid out as ``vertex_cliques.members``:
        vertex u's slice holds the sizes of the cliques through u.
        k(nu) + 1 <= n, so one byte each."""
        starts = self.cliques.starts
        sizes = bytes(map(sub, islice(starts, 1, None), starts))
        return bytes(map(sizes.__getitem__, self.vertex_cliques.members))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Every sorted neighbour row, built on first use and then kept."""
        members, starts = memoryview(self.cliques.members), self.cliques.starts
        return tuple(
            tuple(sorted(v for k in ks for v in members[starts[k] : starts[k + 1]] if v != u))
            for u, ks in enumerate(self.vertex_cliques)
        )

    @cached_property
    def conj(self) -> array:
        """The conjugation permutation, read off the cover on first use.

        Transposition is an involutive automorphism of Young's lattice, so
        it maps the upper covers of nu onto those of its conjugate nu',
        in reverse order: nu's addable cells, by increasing row, have
        strictly decreasing columns; transposed, they are the addable
        cells of nu' by decreasing row. A clique lists its members by
        increasing row of the added cell, so ``cliques[k][m]`` maps to
        ``cliques[k'][-1 - m]``. ``verify`` checks this law on every clique.

        The pass sweeps the cliques in id order, anchored at conj[0] =
        p - 1, as (n) and (1^n) are conjugate. Clique k's first member is
        nu + e_1; it maps to the last member of k', the new-part cover
        nu' + (1). A vertex lists its cliques by decreasing row of the
        removed cell (a cell removed higher up gives a lexicographically
        smaller nu, hence a larger id), so k' is that vertex's first
        clique, from its added part. The members of k and k' are then
        paired both ways, and each clique is mapped once. conj of the
        first member is set when clique k is reached: it is (n) for
        k = 0, and otherwise it has two rows, and removing its last cell
        gives a lexicographically larger nu, whose clique was mapped
        before.
        """
        members, starts = memoryview(self.cliques.members), self.cliques.starts
        through, firsts = self.vertex_cliques.members, self.vertex_cliques.starts
        p = self.num_vertices
        conj = array("i", [0]) * p
        conj[0], conj[-1] = p - 1, 0
        mapped = bytearray(len(self.cliques))
        for k in range(len(mapped)):
            if mapped[k]:
                continue
            lo, hi = starts[k], starts[k + 1]
            image = through[firsts[conj[members[lo]]]]
            mapped[k] = mapped[image] = 1
            for v, w in zip(members[lo:hi], reversed(members[starts[image] : starts[image + 1]])):
                conj[v] = w
                conj[w] = v
        return conj


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
    ends in 1; ``lam`` is nu's new-part cover, at its own position, and
    each other cover nu + e_j is found by a forward scan of ``vertices``
    (``tuple.index`` from a start id), its key built once from a
    bytearray copy of nu with one entry raised. No index from partitions
    to ids is built. Two facts bound where each scan starts:

    - Adding e_j strictly preserves lexicographic order. Zero-padded, nu
      and nu* first differ at some index i; adding 1 at index j to both
      leaves their difference unchanged, so nu + e_j and nu* + e_j first
      differ at i, in the same direction. Bytes compare as the
      zero-padded vectors do, parts being positive. The nu are visited
      in descending order (appending a 1 keeps lexicographic order), so
      for each fixed row j the ids of the covers nu + e_j rise strictly,
      and row j's scan starts one past the last cover it found.
    - Within a clique, nu + e_a > nu + e_b for a < b: they first differ
      at index a, where the first is one larger. So a cell added higher
      up gives a smaller id, the members come out ascending, and each
      scan also starts one past the clique's previous member.

    The scan starts at the larger bound and cannot miss: the cover is a
    vertex at or past both. The new-part cover comes last in its clique.
    Clique ids follow nu in descending order, so each vertex's clique ids
    come out ascending too: its row is sized k(lambda) in advance and
    filled from a cursor. Each incidence is one clique membership, so
    ``members`` is sized in advance as well.
    """
    vertices = tuple(enumerate_partitions(n))
    find = vertices.index
    firsts = array("i", accumulate(map(len, map(set, vertices)), initial=0))
    cursor = firsts[:-1]
    through = array("i", [0]) * firsts[-1]
    members = array("i", [0]) * firsts[-1]
    starts = array("i", [0])
    past = [0] * n
    m = 0
    for new_row, lam in enumerate(vertices):
        if lam[-1] != 1:
            continue
        k = len(starts) - 1
        nu = bytearray(lam)
        del nu[-1]
        above = lo = 0
        for j, v in enumerate(nu):
            if v != above:
                nu[j] = v + 1
                u = find(bytes(nu), past[j] if past[j] > lo else lo)
                nu[j] = v
                past[j] = lo = u + 1
                members[m] = u
                m += 1
                at = cursor[u]
                through[at] = k
                cursor[u] = at + 1
            above = v
        members[m] = new_row
        m += 1
        at = cursor[new_row]
        through[at] = k
        cursor[new_row] = at + 1
        starts.append(m)
    return PartitionGraph(
        n=n,
        vertices=vertices,
        cliques=Rows(members, starts),
        vertex_cliques=Rows(through, firsts),
    )


def bfs_distances(g: PartitionGraph, sources: Iterable[int]) -> list[int]:
    """Distance from each vertex to the nearest source, by multi-source BFS.

    Vertices not reachable from any source (in particular every vertex
    when ``sources`` is empty) get the UNREACHABLE sentinel, never 0.

    The search is level-synchronous and walks cliques, not rows: level
    d collects the cliques through its vertices that no lower level
    reached, and their unlabelled members form level d + 1. This labels
    every vertex as a row-scanning BFS does. Let v be unlabelled after
    level d - 1, with a neighbour x at level d, and K the one clique
    holding the edge xv. K holds no vertex below level d - 1 (it holds
    x), and none at level d - 1, or v would be labelled; so level d
    collects K, and v gets d + 1. Each clique is read once and each
    vertex's clique row once. Both are read in ascending id, a run of
    consecutive ids at a time: consecutive rows are adjacent in the flat
    arrays, so a run is one slice.

    Distance is half the L1 distance of zero-padded part vectors. A
    transfer moves two coordinates by one, so no path is shorter. For
    lambda != mu, some i has lambda_i > mu_i and some j lambda_j < mu_j;
    as mu is nonincreasing, so do the last index of lambda's run through
    i and the first of its run through j. A unit moved from the one to
    the other is a transfer, keeps lambda sorted and lowers the L1
    distance by 2. Hence d((n), lambda) = n - lambda_1.
    """
    members, starts = memoryview(g.cliques.members), g.cliques.starts
    through, firsts = memoryview(g.vertex_cliques.members), g.vertex_cliques.starts
    dist = [UNREACHABLE] * g.num_vertices
    scanned = bytearray(len(g.cliques))
    level = sorted(set(sources))
    for s in level:
        dist[s] = 0
    d = 0
    while level:
        d += 1
        fresh = []
        for lo, hi in _runs(level):
            for k in through[firsts[lo] : firsts[hi]]:
                if not scanned[k]:
                    scanned[k] = 1
                    fresh.append(k)
        fresh.sort()
        reached = []
        for lo, hi in _runs(fresh):
            for v in members[starts[lo] : starts[hi]]:
                if dist[v] == UNREACHABLE:
                    dist[v] = d
                    reached.append(v)
        reached.sort()
        level = reached
    return dist


def _runs(ids: list[int]) -> Iterator[tuple[int, int]]:
    """Each run of consecutive ints in the ascending list ids, as the
    half-open range (first, last + 1)."""
    if not ids:
        return
    first = last = ids[0]
    for i in islice(ids, 1, None):
        if i != last + 1:
            yield first, last + 1
            first = i
        last = i
    yield first, last + 1
