"""Structural property suites, run per n by the verify command.

Each check re-derives a structural fact from raw data (the partitions,
the clique cover of G_n, the conjugation permutation, distance arrays)
independently of the code paths it validates, and reports the first
counterexample on failure. The checks read the cover, not adjacency
rows: only clique_oracle, for small n, builds rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, count
from operator import eq, lt, ne, sub
from typing import Callable

from .axial import central_region, thick_spine
from .graph import UNREACHABLE, PartitionGraph, bfs_distances
from .invariants import (
    DEG,
    DIM_LOC,
    INVARIANTS,
    OMEGA_LOC,
    OracleInfeasibleError,
    local_clique_number,
    local_clique_number_oracle,
)
from .partitions import Partition, check_range, conjugate, format_partition
from .pipeline import GraphAnalysis, analyze

ORACLE_N_LIMIT = 14
RADIUS_BOUND_N_LIMIT = 30
DEG_RADIUS_BOUND = 2
CLIQUE_RADIUS_BOUND = 4

SKIP_AXISLESS = "skipped (axisless)"


@dataclass
class CheckResult:
    n: int
    name: str
    status: str  # "pass", "FAIL", or a "skipped (...)" marker
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"

    def line(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"n={self.n} {self.name}: {self.status}{suffix}"


def pentagonal_partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence, filled bottom-up;
    independent of the enumeration used to build graphs."""
    if n < 0:
        return 0
    table = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            g2 = g1 + k
            sign = 1 if k % 2 == 1 else -1
            total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table.append(total)
    return table[n]


Outcome = tuple[bool, str]


def _check_partition_count(a: GraphAnalysis) -> Outcome:
    expected = pentagonal_partition_count(a.n)
    got = a.graph.num_vertices
    return got == expected, "" if got == expected else f"p({a.n})={got}, recurrence gives {expected}"


def _check_adjacency_symmetric_irreflexive(a: GraphAnalysis) -> Outcome:
    # The cover is G_n's: each clique lists, strictly ascending, the
    # k(nu) + 1 upper covers of its members' componentwise minimum
    # nu |- n-1 (map's truncation drops the zero padding), the nu fall
    # strictly from each clique to the next (so no nu comes twice and no
    # two cliques are equal), and vertex_cliques is its transpose, with
    # k(lambda) cliques per vertex, one per lower cover. By the covering
    # lemma in build_graph its cliques then hold every edge exactly once,
    # so the rows read off it are symmetric and irreflexive.
    g = a.graph
    vertices = g.vertices
    through, firsts = g.vertex_cliques.members, g.vertex_cliques.starts
    # The cliques come in ascending id, so each member's row must list
    # them in that order: cursor[u] is where the next clique through u
    # is due, and at the end every row is used up.
    cursor, ends = firsts[:-1], firsts[1:]
    above = bytes((a.n,))  # the previous clique's nu; (n) is above every nu
    for k, members in enumerate(g.cliques):
        if not all(map(lt, members, members[1:])):
            return False, f"clique {k} is not strictly ascending"
        # A lone member is the cover (1) of nu = (), at n = 1. nu is bytes,
        # one object, as the vertices are.
        nu = bytes(map(min, *map(vertices.__getitem__, members))) if len(members) > 1 else b""
        if sum(nu) != a.n - 1 or len(members) != len(set(nu)) + 1:
            return False, f"clique {k} is not the upper covers of one partition of n-1"
        if not nu < above:
            return False, f"clique {k} does not cover a partition of n-1 below clique {k - 1}'s"
        above = nu
        for u in members:
            at = cursor[u]
            if at == ends[u] or through[at] != k:
                return False, f"clique {k} is missing from vertex_cliques"
            cursor[u] = at + 1
    if cursor != ends or any(map(ne, map(sub, ends, firsts), map(len, map(set, vertices)))):
        u = next(u for u, parts in enumerate(vertices) if not cursor[u] == ends[u] == firsts[u] + len(set(parts)))
        return False, f"{format_partition(vertices[u])} lies in cliques {tuple(g.vertex_cliques[u])}"
    return True, ""


def _check_conjugation_involution(a: GraphAnalysis) -> Outcome:
    # conj is read off the cover, so it is also compared with each
    # partition's transpose, computed from the parts alone: this ties the
    # map whose law conjugation_automorphism checks on the cover to
    # conjugation. Both maps are involutions, so each pair {v, w} is
    # compared once, at v <= w.
    # compute_axis builds the axis from the parts without reading conj,
    # so the recorded axis is compared with conj's fixed points.
    g = a.graph
    conj, vertices = g.conj, g.vertices
    for v, parts in enumerate(vertices):
        w = conj[v]
        if conj[w] != v:
            return False, f"conj^2 moves {format_partition(parts)}"
        if v <= w and vertices[w] != conjugate(parts):
            return False, (
                f"conj maps {format_partition(parts)} to "
                f"{format_partition(vertices[w])}, not its transpose"
            )
    axis = a.geometry.axis
    fixed = frozenset(compress(count(), map(eq, conj, count())))
    if axis != fixed:
        v = min(axis ^ fixed)
        return False, (
            f"the axis {'holds' if v in axis else 'misses'} {format_partition(vertices[v])}, "
            f"which conj {'moves' if v in axis else 'fixes'}"
        )
    return True, ""


def _check_conjugation_automorphism(a: GraphAnalysis) -> Outcome:
    # Transposition maps the upper covers of nu onto those of nu', in
    # reverse order, so conj maps clique k onto clique j read backwards,
    # j being the first clique through the image of k's first member (the
    # clique the conj sweep pairs with k). Every clique then maps onto a
    # clique, and as every edge lies in a clique, each edge onto an edge.
    # conj is read off the cover by this law, but conjugation_involution
    # pins it to each partition's transpose, computed from the parts
    # alone, so the law is checked, not restated.
    g = a.graph
    conj, flat, starts = g.conj, memoryview(g.cliques.members), g.cliques.starts
    through, firsts = g.vertex_cliques.members, g.vertex_cliques.starts
    for members in g.cliques:
        j = through[firsts[conj[members[0]]]]
        if list(map(conj.__getitem__, reversed(members))) != flat[starts[j] : starts[j + 1]].tolist():
            this, that = ("; ".join(format_partition(g.vertices[v]) for v in c) for c in (members, g.cliques[j]))
            return False, f"clique ({this}) does not map onto clique ({that}) reversed"
    return True, ""


def _lost_receivers(parts: Partition) -> list[int]:
    """lost(v) = [v-1 in S+{0}] + [m_v = 1] for each of the k part sizes
    v of a partition, S the part sizes and m_v the multiplicity of v.

    A unit from size v goes to r(v) = k + 1 - lost(v) receivers: the
    other sizes, a new part, or v itself if it repeats, less v - 1 (a new
    part for v = 1), which gives the partition back. So the transfer
    count is the sum of r, k(k + 1) - sum(lost). r(v) is also k(nu) for
    the lower cover nu that takes a cell from size v, whose clique holds
    the partition and r(v) others; a largest clique through it is such a
    clique (see local_clique_number), so omega_loc = 1 + max r =
    k + 2 - min(lost). A run is read at its last index, where the part
    above equals it iff the size repeats."""
    return [
        (below == size - 1) + (above != size)
        for above, size, below in zip((0, *parts), parts, (*parts[1:], 0))
        if size != below
    ]


def _check_degree_sum(a: GraphAnalysis) -> Outcome:
    # Each vertex's recorded degree and omega_loc, which export prints and
    # report ranks, are read off its parts: the transfer count, and one
    # more than the most receivers of any part size. The degrees add up to
    # twice the edge count read off the clique sizes.
    g = a.graph
    degrees = a.profiles[DEG].values
    for parts, deg, omega in zip(g.vertices, degrees, a.profiles[OMEGA_LOC].values):
        lost = _lost_receivers(parts)
        k = len(lost)
        if deg != k * (k + 1) - sum(lost):
            return False, f"{format_partition(parts)} has cover degree {deg}, closed form {k * (k + 1) - sum(lost)}"
        if omega != k + 2 - min(lost):
            return False, f"{format_partition(parts)} has omega_loc {omega}, closed form {k + 2 - min(lost)}"
    total = sum(degrees)
    ok = total == 2 * g.num_edges
    return ok, "" if ok else f"degree sum {total} != 2*{g.num_edges}"


def _check_diagonal_corner_exclusivity(a: GraphAnalysis) -> Outcome:
    # Row i's removable cell (i, parts[i-1]) is diagonal when
    # parts[i-1] == i > parts[i], its addable cell (i, parts[i-1] + 1) when
    # parts[i-1] == i-1 < parts[i-2]. Both need parts[i-1] >= i-1, which
    # fails for good one row past the Durfee square.
    for parts in a.graph.vertices:
        removable = addable = False
        for i, here in enumerate(parts, 1):
            if here < i - 1:
                break
            if here == i and (i == len(parts) or parts[i] < i):
                removable = True
            elif i > 1 and here == i - 1 < parts[i - 2]:
                addable = True
        if removable and addable:
            return False, f"{format_partition(parts)} has both diagonal corner kinds"
    return True, ""


def _check_bfs_triangle(a: GraphAnalysis) -> Outcome:
    # Each array f is the BFS distance d from its sources S. f = 0 on S
    # alone. No clique mixes reached and unreached vertices, so f reaches
    # whole components. Over each clique f spreads by at most 1, and every
    # edge lies in one clique, so f <= d. Every f(v) > 0 has a clique-mate
    # at f(v) - 1, so a path steps down from v to S and f >= d. The axis
    # and spine distances are the recorded ones that report and export
    # print; the distances from (n) come from a fresh BFS.
    g = a.graph
    geom = a.geometry
    distances = (
        ("v0", bfs_distances(g, [0]), {0}),
        ("axis", geom.ax_dist, geom.axis),
        ("spine", geom.sp_dist, geom.spine),
    )
    for tag, dist, sources in distances:
        if dist.count(0) != len(sources) or any(dist[s] for s in sources):
            v = next(v for v, d in enumerate(dist) if (d == 0) != (v in sources))
            return False, f"vertex {v} at distance {dist[v]} from {tag} is {'a' if v in sources else 'no'} source"
        stepped = bytearray(len(dist))  # v has a clique-mate at dist[v] - 1
        for members in g.cliques:
            spread = [dist[v] for v in members]
            lo, hi = min(spread), max(spread)
            if lo == hi:
                continue
            if lo == UNREACHABLE or hi - lo > 1:
                u, v = members[spread.index(lo)], members[spread.index(hi)]
                if lo == UNREACHABLE:
                    return False, f"edge ({v},{u}) leaves the vertices reached from {tag}"
                return False, f"edge ({u},{v}) jumps {lo}->{hi} from {tag}"
            for v, d in zip(members, spread):
                if d == hi:
                    stepped[v] = 1
        for v, d in enumerate(dist):
            if d > 0 and not stepped[v]:
                return False, f"vertex {v} at distance {d} from {tag} has no neighbour at {d - 1}"
    return True, ""


def _axis_members(g: PartitionGraph, axis: frozenset[int]) -> Counter:
    """How many axis vertices each clique holds, counted along the axis
    vertices' clique rows; a clique not listed holds none."""
    return Counter(k for a in axis for k in g.vertex_cliques[a])


def _check_axis_edgeless(a: GraphAnalysis) -> Outcome:
    # Each clique holds at most one axis vertex.
    g = a.graph
    axis = a.geometry.axis
    crowded = [k for k, count in _axis_members(g, axis).items() if count > 1]
    if crowded:
        u, v = [u for u in g.cliques[min(crowded)] if u in axis][:2]
        return False, (
            f"axis vertices {format_partition(g.vertices[u])} and "
            f"{format_partition(g.vertices[v])} are adjacent"
        )
    return True, ""


def _check_mediator_distance_one(a: GraphAnalysis) -> Outcome:
    geom = a.geometry
    for pair, common in geom.mediators.items():
        for v in common:
            if geom.ax_dist[v] != 1:
                return False, f"mediator {v} of pair {pair} at axial distance {geom.ax_dist[v]}"
    return True, ""


def _check_spine_sandwich(a: GraphAnalysis) -> Outcome:
    # Ax <= Sp <= C^(1), read per vertex: every spine vertex lies at
    # axial distance 0 or 1.
    geom = a.geometry
    if not geom.axis <= geom.spine:
        return False, "axis not contained in spine"
    far = [v for v in geom.spine if not 0 <= geom.ax_dist[v] <= 1]
    if far:
        v = min(far)
        return False, f"spine vertex {format_partition(a.graph.vertices[v])} at axial distance {geom.ax_dist[v]}"
    return True, ""


def _check_spine_conj_invariant(a: GraphAnalysis) -> Outcome:
    conj = a.graph.conj
    spine = a.geometry.spine
    image = frozenset(conj[v] for v in spine)
    return image == spine, "" if image == spine else "conjugation moves the spine"


def _check_spine_membership(a: GraphAnalysis) -> Outcome:
    # Independent re-derivation: an off-axis vertex is spinal iff it is
    # adjacent to two distinct axis vertices. Its cliques meet only in
    # itself, so its axis neighbours are counted clique by clique, over
    # the cliques that hold an axis vertex.
    g = a.graph
    geom = a.geometry
    axis = geom.axis
    neighbours: Counter = Counter()
    for k, count in _axis_members(g, axis).items():
        neighbours.update(dict.fromkeys(g.cliques[k], count))
    bridging = {v for v, count in neighbours.items() if count >= 2} - axis
    wrong = bridging ^ (geom.spine - axis)
    if wrong:
        return False, f"{format_partition(g.vertices[min(wrong)])} misclassified for the spine"
    return True, ""


def _check_filtration_sandwich(a: GraphAnalysis) -> Outcome:
    # C^(r) <= thick(r) <= C^(r+1) for every r holds exactly when each
    # vertex is reached from both or from neither, and a reached one has
    # sp_dist <= ax_dist <= sp_dist + 1; G_n is connected, so with an
    # axis every vertex is reached. The balls of radius 0 are the axis
    # and the spine, so Ax <= Sp <= C^(1) is the case r = 0.
    geom = a.geometry
    if central_region(geom, 0) != geom.axis:
        return False, "central region r=0 is not the axis"
    if thick_spine(geom, 0) != geom.spine:
        return False, "thick spine r=0 is not the spine"
    for v, (ax, sp) in enumerate(zip(geom.ax_dist, geom.sp_dist)):
        if not 0 <= sp <= ax <= sp + 1 and not ax == sp == UNREACHABLE:
            return False, f"{format_partition(a.graph.vertices[v])} lies {ax} from the axis and {sp} from the spine"
    return True, ""


def _check_shell_sums(a: GraphAnalysis) -> Outcome:
    geom = a.geometry
    p = a.graph.num_vertices
    if sum(geom.ax_shells) != p:
        return False, f"axial shells sum to {sum(geom.ax_shells)} != p(n)={p}"
    if sum(geom.sp_shells) != p:
        return False, f"spinal shells sum to {sum(geom.sp_shells)} != p(n)={p}"
    if geom.ax_shells[0] != len(geom.axis):
        return False, "shell 0 differs from the axis size"
    if geom.sp_shells[0] != len(geom.spine):
        return False, "spinal shell 0 differs from the spine size"
    # Each shell tuple is the histogram of its distance array.
    for tag, shells, dist in (("axial", geom.ax_shells, geom.ax_dist), ("spinal", geom.sp_shells, geom.sp_dist)):
        if len(shells) != max(dist) + 1:
            return False, f"{tag} shells end at {len(shells) - 1}, the distances at {max(dist)}"
        counts = Counter(dist)
        for r, shell in enumerate(shells):
            if shell != counts[r]:
                return False, f"{tag} shell {r} is {shell}, but {counts[r]} vertices lie at distance {r}"
    return True, ""


def _check_distance_conj_invariant(a: GraphAnalysis) -> Outcome:
    geom = a.geometry
    conj = a.graph.conj
    for v in range(a.graph.num_vertices):
        if geom.ax_dist[v] != geom.ax_dist[conj[v]] or geom.sp_dist[v] != geom.sp_dist[conj[v]]:
            return False, f"distance asymmetry at {format_partition(a.graph.vertices[v])}"
    return True, ""


def _check_radius_comparison(a: GraphAnalysis) -> Outcome:
    geom = a.geometry
    for inv in INVARIANTS:
        prof = a.profiles[inv]
        if prof.rho_ax is None or prof.rho_sp is None:
            return False, f"{inv}: radius undefined (maximizer unreachable from axis)"
        if not (prof.rho_sp <= prof.rho_ax <= prof.rho_sp + 1):
            return False, f"{inv}: rho_ax={prof.rho_ax}, rho_sp={prof.rho_sp}"
        # Each radius is the farthest recorded distance of a maximizer.
        ax = max(geom.ax_dist[v] for v in prof.argmax)
        sp = max(geom.sp_dist[v] for v in prof.argmax)
        if (prof.rho_ax, prof.rho_sp) != (ax, sp):
            return False, f"{inv}: radii ({prof.rho_ax},{prof.rho_sp}), but the argmax reaches ({ax},{sp})"
    return True, ""


def _check_argmax_symmetry(a: GraphAnalysis) -> Outcome:
    conj = a.graph.conj
    for inv in INVARIANTS:
        prof = a.profiles[inv]
        argmax = prof.argmax
        if frozenset(conj[v] for v in argmax) != argmax:
            return False, f"{inv}: argmax not conjugation-closed"
        if len(argmax) % 2 == 1 and not any(conj[v] == v for v in argmax):
            return False, f"{inv}: odd argmax avoids the axis"
        # The recorded maximum and argmax are those of the recorded values.
        # dim_loc keeps none: its values are omega_loc's less one.
        values, shift = (a.profiles[OMEGA_LOC].values, 1) if inv == DIM_LOC else (prof.values, 0)
        top = max(values) - shift
        if prof.max_value != top:
            return False, f"{inv}: max {prof.max_value}, but the values peak at {top}"
        if argmax != frozenset(compress(count(), map((top + shift).__eq__, values))):
            return False, f"{inv}: argmax is not the set of vertices at {top}"
    return True, ""


def _check_omega_deg_bounds(a: GraphAnalysis) -> Outcome:
    deg = a.profiles[DEG].values
    omega = a.profiles[OMEGA_LOC].values
    for v in range(a.graph.num_vertices):
        lo = 2 if deg[v] >= 1 else 1
        if not (lo <= omega[v] <= deg[v] + 1):
            return False, f"omega_loc({v})={omega[v]} outside [{lo},{deg[v] + 1}]"
    return True, ""


def _check_dim_shift(a: GraphAnalysis) -> Outcome:
    omega = a.profiles[OMEGA_LOC]
    dim = a.profiles[DIM_LOC]
    if dim.max_value != omega.max_value - 1:
        return False, "dim_loc's max is not omega_loc's less one"
    if dim.argmax != omega.argmax:
        return False, "dim_loc argmax differs from omega_loc argmax"
    if (dim.rho_ax, dim.rho_sp) != (omega.rho_ax, omega.rho_sp):
        return False, "dim_loc radii differ from omega_loc radii"
    return True, ""


def _check_radius_bounds(a: GraphAnalysis) -> Outcome:
    for inv, bound in ((DEG, DEG_RADIUS_BOUND), (OMEGA_LOC, CLIQUE_RADIUS_BOUND), (DIM_LOC, CLIQUE_RADIUS_BOUND)):
        prof = a.profiles[inv]
        if prof.rho_ax is None or prof.rho_sp is None:
            return False, f"{inv}: radius undefined (maximizer unreachable from axis)"
        if prof.rho_ax > bound or prof.rho_sp > bound:
            return False, f"{inv} radii ({prof.rho_ax},{prof.rho_sp}) exceed {bound}"
    return True, ""


def _check_clique_oracle(a: GraphAnalysis) -> Outcome:
    g = a.graph
    for v, fast in enumerate(local_clique_number(g)):
        try:
            slow = local_clique_number_oracle(g, v)
        except OracleInfeasibleError:
            return False, f"vertex {v} exceeds the oracle degree bound"
        if fast != slow:
            return False, (
                f"omega_loc disagreement at {format_partition(g.vertices[v])}: "
                f"count={fast}, oracle={slow}"
            )
    return True, ""


# (name, check, needs_axis, n_limit or None)
_CHECKS: list[tuple[str, Callable[[GraphAnalysis], Outcome], bool, int | None]] = [
    ("partition_count", _check_partition_count, False, None),
    ("adjacency_symmetric_irreflexive", _check_adjacency_symmetric_irreflexive, False, None),
    ("conjugation_involution", _check_conjugation_involution, False, None),
    ("conjugation_automorphism", _check_conjugation_automorphism, False, None),
    ("degree_sum", _check_degree_sum, False, None),
    ("diagonal_corner_exclusivity", _check_diagonal_corner_exclusivity, False, None),
    ("bfs_triangle", _check_bfs_triangle, False, None),
    ("axis_edgeless", _check_axis_edgeless, True, None),
    ("mediator_distance_one", _check_mediator_distance_one, True, None),
    ("spine_sandwich", _check_spine_sandwich, True, None),
    ("spine_conj_invariant", _check_spine_conj_invariant, True, None),
    ("spine_membership", _check_spine_membership, True, None),
    ("filtration_sandwich", _check_filtration_sandwich, True, None),
    ("shell_sums", _check_shell_sums, True, None),
    ("distance_conj_invariant", _check_distance_conj_invariant, True, None),
    ("radius_comparison", _check_radius_comparison, True, None),
    ("argmax_symmetry", _check_argmax_symmetry, False, None),
    ("omega_deg_bounds", _check_omega_deg_bounds, False, None),
    ("dim_shift", _check_dim_shift, False, None),
    ("radius_bounds", _check_radius_bounds, True, RADIUS_BOUND_N_LIMIT),
    ("clique_oracle", _check_clique_oracle, False, ORACLE_N_LIMIT),
]


def run_checks(n: int) -> list[CheckResult]:
    """All property suites for one n, axial ones skipped when axisless."""
    analysis = analyze(n)
    analysis.graph.conj  # built on first use: here, so that no check's time includes it
    axial = analysis.geometry.is_axial
    results = []
    for name, fn, needs_axis, n_limit in _CHECKS:
        if needs_axis and not axial:
            results.append(CheckResult(n, name, SKIP_AXISLESS))
            continue
        if n_limit is not None and n > n_limit:
            results.append(CheckResult(n, name, f"skipped (n>{n_limit})"))
            continue
        ok, detail = fn(analysis)
        results.append(CheckResult(n, name, "pass" if ok else "FAIL", detail))
    return results


def verify_range(n_min: int, n_max: int) -> list[CheckResult]:
    check_range(n_min, n_max)
    results = []
    for n in range(n_min, n_max + 1):
        results.extend(run_checks(n))
    return results
