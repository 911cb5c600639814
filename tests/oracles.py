"""Independent brute-force implementations used to validate the library.

These deliberately avoid the library's own algorithms: partitions are
grown one cell at a time and sorted, conjugation is done by transposing
an explicit cell set, transfers by trying every (donor index, receiver
index) pair, removable and addable cells (corners) by checking that
the cell set stays downward-closed, the local clique number by a
pivoted branch search over adjacency bitsets or by counting transfers
per donor and receiver, graph distance as half the L1 distance of part
vectors, BFS by scanning every adjacency row in full, and the export
classes by membership in the axis, spine and radius-1 ball.
``transfer_neighbors`` is the per-vertex definition of an edge, one
neighbour per (donor size, receiver size) pair; it is 20 times faster
than the index-pair form, so the tests compare build_graph's rows with
it for n = 19..30 and the degrees for n <= 30. ``conj_by_lookup`` is
the exception: it transposes each vertex with the library's
``conjugate``, as the slow twin of build_graph reading conj off the
clique cover. ``build_graph_by_index`` builds the same cover with each
upper cover looked up in a dict from partition to id, where build_graph
scans the vertex tuple forward; tests compare the two array by array.

Partitions here are tuples of ints, while the library's vertices are
bytes, one byte per part; both iterate and index as ints, so an oracle
accepts either, and tests decode with ``tuple(v)`` or encode with
``bytes(...)`` where they compare the two.

The ``*_by_rows`` checks at the end are the row-based forms of verify's
checks that now read the clique cover,
``diagonal_corner_exclusivity_by_cells`` reads the diagonal corners off
the cell set, and the ``*_by_balls`` checks compare the distance balls
vertex set by vertex set where verify compares distances per vertex;
tests compare the two verdicts. ``local_clique_number_by_subsets`` is
the clique oracle's earlier form, which tries every subset of N(v).
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from itertools import accumulate, combinations, zip_longest

from partition_axis import (
    UNREACHABLE,
    OracleInfeasibleError,
    PartitionGraph,
    Rows,
    bfs_distances,
    central_region,
    conjugate,
    enumerate_partitions,
    format_partition,
    thick_spine,
)
from partition_axis.invariants import ORACLE_DEGREE_LIMIT


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


def transfer_neighbors(parts) -> set[tuple[int, ...]]:
    """Partitions reachable by moving one unit between two distinct parts.

    One part shrinks by 1 (vanishing if it was 1) and a different part or
    a newly adjoined zero part grows by 1. Each neighbour is one copy of
    the parts with two entries edited in place; no resorting is needed.

    The outcome of a transfer depends only on the donor size v and the
    receiver size w (0 for a new part, at index len(parts)), so each pair
    is one neighbour. A transfer from v onto v-1 reproduces the input and
    is skipped; v onto v needs two parts of size v. The donor is the last
    part of its size (index i) and the receiver the first of its (index
    j), so decrementing the one and incrementing the other keeps the
    parts nonincreasing.
    """
    ell = len(parts)
    runs = []  # (size, first index, last index), largest size first
    first = 0
    for k in range(1, ell + 1):
        if k == ell or parts[k] != parts[first]:
            runs.append((parts[first], first, k - 1))
            first = k
    receivers = runs + [(0, ell, ell)]
    out: set[tuple[int, ...]] = set()
    for v, _, i in runs:
        for w, j, w_last in receivers:
            if w == v - 1 or (w == v and j == w_last):
                continue
            if w:
                moved = list(parts)
                moved[j] = w + 1
            else:
                moved = [*parts, 1]
            if v > 1:
                moved[i] = v - 1
            else:
                moved.pop()  # a donor of size 1 is the last part
            out.add(tuple(moved))
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


def conj_by_lookup(g):
    """The conjugation permutation of ``g``: each vertex transposed with
    the library's ``conjugate`` and looked up in a vertex index."""
    index = {p: i for i, p in enumerate(g.vertices)}
    return tuple(index[conjugate(p)] for p in g.vertices)


def build_graph_by_index(n):
    """build_graph's clique cover with every upper cover of nu looked up
    in a dict from partition to vertex id."""
    vertices = tuple(enumerate_partitions(n))
    index = {p: i for i, p in enumerate(vertices)}
    firsts = array("i", accumulate(map(len, map(set, vertices)), initial=0))
    cursor = firsts[:-1]
    through = array("i", [0]) * firsts[-1]
    members = array("i")
    starts = array("i", [0])
    for lam, new_row in index.items():
        if lam[-1] != 1:
            continue
        k = len(starts) - 1
        nu = bytearray(lam)
        del nu[-1]
        above = 0
        for j, v in enumerate(nu):
            if v != above:
                nu[j] = v + 1
                u = index[bytes(nu)]
                nu[j] = v
                members.append(u)
                at = cursor[u]
                through[at] = k
                cursor[u] = at + 1
            above = v
        members.append(new_row)
        at = cursor[new_row]
        through[at] = k
        cursor[new_row] = at + 1
        starts.append(len(members))
    return PartitionGraph(
        n=n,
        vertices=vertices,
        cliques=Rows(members, starts),
        vertex_cliques=Rows(through, firsts),
    )


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


def has_both_diagonal_corner_kinds(parts):
    """Whether one diagonal cell (i, i) is removable and another addable."""
    return all(
        any(i == j for i, j in found) for found in (removable_cells(parts), addable_cells(parts))
    )


def _bits(mask):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _max_clique_size(candidates: int, rows: list[int]) -> int:
    """Largest clique among the vertices set in ``candidates``, where bit
    w of ``rows[u]`` marks the edge uw, by pivoted branch and bound.

    Every clique that cannot grow within the candidates holds the pivot
    or a candidate outside the pivot's row, so only those are branched
    on; a branch stops once its candidates cannot beat the best found.
    """
    best = 0

    def expand(size: int, p: int) -> None:
        nonlocal best
        if not p:
            best = max(best, size)
            return
        if size + p.bit_count() <= best:
            return
        pivot = max(_bits(p), key=lambda u: (p & rows[u]).bit_count())
        for v in _bits(p & ~rows[pivot]):
            expand(size + 1, p & rows[v])
            p ^= 1 << v
            if size + p.bit_count() <= best:
                return

    expand(0, candidates)
    return best


def local_clique_numbers_by_search(g):
    """1 + the clique number of the graph induced on N(v), searched, for
    every vertex v; each adjacency row becomes one int bitset."""
    rows = [sum(1 << w for w in row) for row in g.adjacency]
    return [1 + _max_clique_size(row, rows) for row in rows]


def local_clique_number_by_subsets(g, v):
    """1 + the clique number of N(v), by trying every subset of N(v).

    Subsets are tried in increasing size; once no subset of size k is a
    clique, no larger one can be, so the scan stops. Only feasible for
    small degrees.
    """
    neighborhood = g.adjacency[v]
    if len(neighborhood) > ORACLE_DEGREE_LIMIT:
        raise OracleInfeasibleError(
            f"deg={len(neighborhood)} exceeds oracle bound {ORACLE_DEGREE_LIMIT}"
        )
    adj = {u: set(g.adjacency[u]) for u in neighborhood}
    best = 0
    for k in range(1, len(neighborhood) + 1):
        found = False
        for subset in combinations(neighborhood, k):
            if all(b in adj[a] for a, b in combinations(subset, 2)):
                found = True
                break
        if not found:
            break
        best = k
    return 1 + best


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


def adjacency_symmetric_irreflexive_by_rows(a):
    adj = a.graph.adjacency
    for u, row in enumerate(adj):
        if u in row:
            return False, f"self-loop at {format_partition(a.graph.vertices[u])}"
        for v in row:
            if u not in adj[v]:
                return False, f"asymmetric edge ({u},{v})"
    return True, ""


def conjugation_automorphism_by_rows(a):
    g = a.graph
    adj = g.adjacency
    for u, row in enumerate(adj):
        image = set(adj[g.conj[u]])
        for v in row:
            if u < v and g.conj[v] not in image:
                return False, (
                    f"edge ({format_partition(g.vertices[u])},"
                    f"{format_partition(g.vertices[v])}) breaks under conjugation"
                )
    return True, ""


def degree_sum_by_rows(a):
    total = sum(len(row) for row in a.graph.adjacency)
    ok = total == 2 * a.graph.num_edges
    return ok, "" if ok else f"degree sum {total} != 2*{a.graph.num_edges}"


def diagonal_corner_exclusivity_by_cells(a):
    for parts in a.graph.vertices:
        if not is_downward_closed(cells(parts)):
            return False, f"{format_partition(parts)} is no partition"
        if has_both_diagonal_corner_kinds(parts):
            return False, f"{format_partition(parts)} has both diagonal corner kinds"
    return True, ""


def bfs_triangle_by_rows(a):
    """Each array is the BFS distance from its sources: 0 on the sources
    alone, no edge from a reached to an unreached vertex or across more
    than one layer, and a neighbour one layer down from every reached
    vertex off the sources."""
    g = a.graph
    geom = a.geometry
    distances = (
        ("v0", bfs_distances(g, [0]), {0}),
        ("axis", geom.ax_dist, geom.axis),
        ("spine", geom.sp_dist, geom.spine),
    )
    for tag, dist, sources in distances:
        for v, d in enumerate(dist):
            if (d == 0) != (v in sources):
                return False, f"vertex {v} at distance {d} from {tag} is {'a' if v in sources else 'no'} source"
        for u, row in enumerate(g.adjacency):
            for v in row:
                if (dist[u] == UNREACHABLE) != (dist[v] == UNREACHABLE):
                    return False, f"edge ({u},{v}) leaves the vertices reached from {tag}"
                if abs(dist[u] - dist[v]) > 1:
                    return False, f"edge ({u},{v}) jumps {dist[u]}->{dist[v]} from {tag}"
            if dist[u] > 0 and all(dist[v] != dist[u] - 1 for v in row):
                return False, f"vertex {u} at distance {dist[u]} from {tag} has no neighbour at {dist[u] - 1}"
    return True, ""


def axis_edgeless_by_rows(a):
    axis = a.geometry.axis
    for u in axis:
        hit = axis & set(a.graph.adjacency[u])
        if hit:
            v = min(hit)
            return False, (
                f"axis vertices {format_partition(a.graph.vertices[u])} and "
                f"{format_partition(a.graph.vertices[v])} are adjacent"
            )
    return True, ""


def spine_membership_by_rows(a):
    geom = a.geometry
    axis = geom.axis
    for v in range(a.graph.num_vertices):
        if v in axis:
            continue
        bridging = len(axis & set(a.graph.adjacency[v])) >= 2
        if bridging != (v in geom.spine):
            return False, f"{format_partition(a.graph.vertices[v])} misclassified for the spine"
    return True, ""


def spine_sandwich_by_balls(a):
    """Ax <= Sp <= C^(1), with C^(1) the ball of radius 1 around the axis."""
    geom = a.geometry
    narrow = central_region(geom, 1)
    if not geom.axis <= geom.spine:
        return False, "axis not contained in spine"
    if not geom.spine <= narrow:
        return False, "spine escapes the narrow central region"
    return True, ""


def filtration_sandwich_by_balls(a):
    """C^(r) <= thick(r) <= C^(r+1) for r = 0 .. the axial eccentricity,
    each ball built as a vertex set."""
    geom = a.geometry
    central = central_region(geom, 0)
    for r in range(len(geom.ax_shells) + 1):
        thick = thick_spine(geom, r)
        if not central <= thick:
            return False, f"central region r={r} escapes thick spine r={r}"
        central = central_region(geom, r + 1)  # reused as step r+1's ball
        if not thick <= central:
            return False, f"thick spine r={r} escapes central region r={r + 1}"
    return True, ""


def vertex_classes_by_membership(a):
    """Export classes by set membership: the axis, the spine, the ball
    C^(1) of radius 1 around the axis, and the rest."""
    geom = a.geometry
    narrow = central_region(geom, 1)
    classes = []
    for v in range(a.graph.num_vertices):
        if v in geom.axis:
            classes.append("axis")
        elif v in geom.spine:
            classes.append("spine_off_axis")
        elif v in narrow:
            classes.append("central_off_spine")
        else:
            classes.append("outer")
    return classes


# verify's check name -> its row-based (or cell-set, or ball) twin
CHECK_TWINS = {
    "adjacency_symmetric_irreflexive": adjacency_symmetric_irreflexive_by_rows,
    "conjugation_automorphism": conjugation_automorphism_by_rows,
    "degree_sum": degree_sum_by_rows,
    "diagonal_corner_exclusivity": diagonal_corner_exclusivity_by_cells,
    "bfs_triangle": bfs_triangle_by_rows,
    "axis_edgeless": axis_edgeless_by_rows,
    "spine_membership": spine_membership_by_rows,
    "spine_sandwich": spine_sandwich_by_balls,
    "filtration_sandwich": filtration_sandwich_by_balls,
}
