"""Independent brute-force implementations used to validate the library.

These deliberately avoid the library's own algorithms: partitions are
grown one cell at a time and sorted, conjugation is done by transposing
an explicit cell set, transfers by trying every (donor index, receiver
index) pair, corners by checking that the cell set stays
downward-closed, the local clique number by a pivoted branch search
over the adjacency lists or by counting transfers per donor and
receiver, graph distance as half the L1 distance of part vectors, and
BFS by scanning every adjacency row in full.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import zip_longest


def cells(parts):
    return {(i, j) for i, p in enumerate(parts, start=1) for j in range(1, p + 1)}


def cells_to_partition(cell_set):
    rows = {}
    for i, _ in cell_set:
        rows[i] = rows.get(i, 0) + 1
    return tuple(rows[i] for i in sorted(rows))


def conjugate_by_transposition(parts):
    return cells_to_partition({(j, i) for i, j in cells(parts)})


def naive_transfer_neighbors(parts):
    n = sum(parts)
    out = set()
    for i in range(len(parts)):
        for j in range(len(parts) + 1):  # the extra slot is a fresh zero part
            if i == j:
                continue
            moved = list(parts) + [0]
            moved[i] -= 1
            moved[j] += 1
            cand = tuple(sorted((x for x in moved if x > 0), reverse=True))
            if cand != parts:
                assert sum(cand) == n
                out.add(cand)
    return out


def _grow(parts):
    """Every nonincreasing tuple that adds one unit to a part of ``parts``
    or adjoins a new part 1."""
    grown = set()
    for i in range(len(parts) + 1):
        cand = list(parts) + [0]
        cand[i] += 1
        grown.add(tuple(sorted((x for x in cand if x > 0), reverse=True)))
    return grown


def partitions_by_growth(n):
    """All partitions of n in reverse-lexicographic order, grown one unit
    at a time from the empty partition."""
    level = {()}
    for _ in range(n):
        level = {q for parts in level for q in _grow(parts)}
    return sorted(level, reverse=True)


def graph_by_brute_force(n):
    """(vertices, adjacency, conj) of the transfer graph on partitions of n,
    built from the oracles above only."""
    vertices = tuple(partitions_by_growth(n))
    index = {p: i for i, p in enumerate(vertices)}
    adjacency = tuple(
        tuple(sorted(index[m] for m in naive_transfer_neighbors(p))) for p in vertices
    )
    conj = tuple(index[conjugate_by_transposition(p)] for p in vertices)
    return vertices, adjacency, conj


def is_downward_closed(cell_set):
    return all(
        (i == 1 or (i - 1, j) in cell_set) and (j == 1 or (i, j - 1) in cell_set)
        for i, j in cell_set
    )


def removable_cells(parts):
    """Cells whose removal keeps the diagram downward-closed."""
    diagram = cells(parts)
    return {c for c in diagram if is_downward_closed(diagram - {c})}


def addable_cells(parts):
    """Missing cells whose addition keeps the diagram downward-closed."""
    diagram = cells(parts)
    candidates = {
        (i, j)
        for i in range(1, len(parts) + 2)
        for j in range(1, parts[0] + 2)
        if (i, j) not in diagram
    }
    return {c for c in candidates if is_downward_closed(diagram | {c})}


def _max_clique_size(candidates: set[int], adj: dict[int, set[int]]) -> int:
    """Largest clique among ``candidates``, by pivoted branch enumeration."""
    best = 0

    def expand(size: int, p: set[int], x: set[int]) -> None:
        nonlocal best
        if not p and not x:
            if size > best:
                best = size
            return
        pivot = max(p | x, key=lambda u: len(p & adj[u]))
        for v in list(p - adj[pivot]):
            expand(size + 1, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand(0, set(candidates), set())
    return best


def local_clique_number_by_search(g, v):
    """1 + the clique number of the graph induced on N(v), searched."""
    neighborhood = g.adjacency[v]
    if not neighborhood:
        return 1
    members = set(neighborhood)
    induced = {u: set(g.adjacency[u]) & members for u in neighborhood}
    return 1 + _max_clique_size(members, induced)


def transfer_moves(parts):
    """Distinct (donor size, receiver size) pairs of unit transfers, over
    every (donor index, receiver index) pair; receiver 0 is a newly
    adjoined part. A donor of size a onto a receiver of size a - 1 only
    swaps the two sizes, giving ``parts`` back, and is skipped."""
    padded = list(parts) + [0]
    return {
        (a, b)
        for i, a in enumerate(parts)
        for j, b in enumerate(padded)
        if i != j and b != a - 1
    }


def local_clique_number_by_moves(g, v):
    """1 + the most transfers of vertex v sharing a donor size or sharing
    a receiver size: the rook's-graph reading, counted move by move."""
    moves = transfer_moves(g.vertices[v])
    if not moves:
        return 1
    donors = Counter(a for a, _ in moves)
    receivers = Counter(b for _, b in moves)
    return 1 + max(*donors.values(), *receivers.values())


def l1_distance_to_set(parts, targets):
    """Graph distance from ``parts`` to the nearest of ``targets``, as half
    the L1 distance between zero-padded part vectors."""
    return min(
        sum(abs(x - y) for x, y in zip_longest(parts, other, fillvalue=0)) // 2
        for other in targets
    )


def bfs_distances_by_rows(adjacency, sources):
    """Multi-source BFS that reads each dequeued vertex's whole row;
    unreached vertices get -1."""
    unreachable = -1
    dist = [unreachable] * len(adjacency)
    queue = deque()
    for s in sorted(set(sources)):
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] == unreachable:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist
