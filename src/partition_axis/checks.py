"""Structural property suites, run per n by the verify command.

Each check re-derives a structural fact from raw data (adjacency lists,
the conjugation permutation, distance arrays) independently of the code
paths it validates, and reports the first counterexample on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .axial import central_region, thick_spine
from .graph import UNREACHABLE, bfs_distances
from .invariants import (
    DEG,
    DIM_LOC,
    INVARIANTS,
    OMEGA_LOC,
    ORACLE_DEGREE_LIMIT,
    local_clique_number,
    local_clique_number_oracle,
)
from .partitions import ADDABLE, REMOVABLE, corners, format_partition
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
    adj = a.graph.adjacency
    for u, row in enumerate(adj):
        if u in row:
            return False, f"self-loop at {format_partition(a.graph.vertices[u])}"
        for v in row:
            if u not in adj[v]:
                return False, f"asymmetric edge ({u},{v})"
    return True, ""


def _check_conjugation_involution(a: GraphAnalysis) -> Outcome:
    conj = a.graph.conj
    for v in range(a.graph.num_vertices):
        if conj[conj[v]] != v:
            return False, f"conj^2 moves {format_partition(a.graph.vertices[v])}"
    return True, ""


def _check_conjugation_automorphism(a: GraphAnalysis) -> Outcome:
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


def _check_degree_sum(a: GraphAnalysis) -> Outcome:
    total = sum(len(row) for row in a.graph.adjacency)
    ok = total == 2 * a.graph.num_edges
    return ok, "" if ok else f"degree sum {total} != 2*{a.graph.num_edges}"


def _check_diagonal_corner_exclusivity(a: GraphAnalysis) -> Outcome:
    for parts in a.graph.vertices:
        kinds = {c.kind for c in corners(parts) if c.diagonal}
        if REMOVABLE in kinds and ADDABLE in kinds:
            return False, f"{format_partition(parts)} has both diagonal corner kinds"
    return True, ""


def _check_bfs_triangle(a: GraphAnalysis) -> Outcome:
    g = a.graph
    source_sets = {"v0": [0], "axis": a.geometry.axis, "spine": a.geometry.spine}
    for tag, sources in source_sets.items():
        dist = bfs_distances(g, sources)
        for u, row in enumerate(g.adjacency):
            for v in row:
                if dist[u] != UNREACHABLE and dist[v] != UNREACHABLE and abs(dist[u] - dist[v]) > 1:
                    return False, f"edge ({u},{v}) jumps {dist[u]}->{dist[v]} from {tag}"
    return True, ""


def _check_axis_edgeless(a: GraphAnalysis) -> Outcome:
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


def _check_mediator_distance_one(a: GraphAnalysis) -> Outcome:
    geom = a.geometry
    for pair, common in geom.mediators.items():
        for v in common:
            if geom.ax_dist[v] != 1:
                return False, f"mediator {v} of pair {pair} at axial distance {geom.ax_dist[v]}"
    return True, ""


def _check_spine_sandwich(a: GraphAnalysis) -> Outcome:
    geom = a.geometry
    narrow = central_region(geom, 1)
    if not geom.axis <= geom.spine:
        return False, "axis not contained in spine"
    if not geom.spine <= narrow:
        return False, "spine escapes the narrow central region"
    return True, ""


def _check_spine_conj_invariant(a: GraphAnalysis) -> Outcome:
    conj = a.graph.conj
    spine = a.geometry.spine
    image = frozenset(conj[v] for v in spine)
    return image == spine, "" if image == spine else "conjugation moves the spine"


def _check_spine_membership(a: GraphAnalysis) -> Outcome:
    # Independent re-derivation: an off-axis vertex is spinal iff it is
    # adjacent to two distinct axis vertices.
    geom = a.geometry
    axis = geom.axis
    for v in range(a.graph.num_vertices):
        if v in axis:
            continue
        bridging = len(axis & set(a.graph.adjacency[v])) >= 2
        if bridging != (v in geom.spine):
            return False, f"{format_partition(a.graph.vertices[v])} misclassified for the spine"
    return True, ""


def _check_filtration_sandwich(a: GraphAnalysis) -> Outcome:
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
    return True, ""


def _check_distance_conj_invariant(a: GraphAnalysis) -> Outcome:
    geom = a.geometry
    conj = a.graph.conj
    for v in range(a.graph.num_vertices):
        if geom.ax_dist[v] != geom.ax_dist[conj[v]] or geom.sp_dist[v] != geom.sp_dist[conj[v]]:
            return False, f"distance asymmetry at {format_partition(a.graph.vertices[v])}"
    return True, ""


def _check_radius_comparison(a: GraphAnalysis) -> Outcome:
    for inv in INVARIANTS:
        prof = a.profiles[inv]
        if prof.rho_ax is None or prof.rho_sp is None:
            return False, f"{inv}: radius undefined (maximizer unreachable from axis)"
        if not (prof.rho_sp <= prof.rho_ax <= prof.rho_sp + 1):
            return False, f"{inv}: rho_ax={prof.rho_ax}, rho_sp={prof.rho_sp}"
    return True, ""


def _check_argmax_symmetry(a: GraphAnalysis) -> Outcome:
    conj = a.graph.conj
    for inv in INVARIANTS:
        argmax = a.profiles[inv].argmax
        if frozenset(conj[v] for v in argmax) != argmax:
            return False, f"{inv}: argmax not conjugation-closed"
        if len(argmax) % 2 == 1 and not any(conj[v] == v for v in argmax):
            return False, f"{inv}: odd argmax avoids the axis"
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
    if any(d != w - 1 for d, w in zip(dim.values, omega.values)):
        return False, "dim_loc values are not omega_loc - 1"
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
    for v in range(g.num_vertices):
        if len(g.adjacency[v]) > ORACLE_DEGREE_LIMIT:
            return False, f"vertex {v} exceeds the oracle degree bound"
        fast = local_clique_number(g, v)
        slow = local_clique_number_oracle(g, v)
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
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"invalid range {n_min}..{n_max}")
    results = []
    for n in range(n_min, n_max + 1):
        results.extend(run_checks(n))
    return results
