"""verify's cover-reading checks, its diagonal-corner check and its
sandwich checks against their twins, and the checks on the recorded
distance arrays.

oracles.CHECK_TWINS holds each check's earlier form: it reads adjacency
rows, or the cell set's removable and addable cells for the corner
check, or builds the distance balls as vertex sets for the sandwiches.
On real analyses both forms give the same verdict, and both reject each
tampered input. bfs_triangle pins each recorded distance array from
above and from below, and shell_sums pins each shell tuple to its
array's histogram.
"""

import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from partition_axis import UNREACHABLE, all_profiles, axial, axial_geometry, checks, format_partition
from partition_axis.checks import _CHECKS
from partition_axis.invariants import DEG, DIM_LOC, OMEGA_LOC

from layout import as_tuples, rows_of, with_conj
from memo import analyze
from oracles import CHECK_TWINS, local_clique_number_by_subsets

CHECKS = {name: fn for name, fn, *_ in _CHECKS}


@pytest.mark.parametrize("name", sorted(CHECK_TWINS))
def test_cover_check_agrees_with_twin_through_n20(name):
    for n in range(1, 21):
        a = analyze(n)
        assert CHECKS[name](a) == CHECK_TWINS[name](a), n


def _with_graph(a, **fields):
    return replace(a, graph=replace(a.graph, **fields))


def _with_geometry(a, **fields):
    return replace(a, geometry=replace(a.geometry, **fields))


def _drop_clique_member(a):
    # the first three-member clique loses its last member; the vertex
    # still lists the clique
    g = a.graph
    k = next(k for k, members in enumerate(g.cliques) if len(members) == 3)
    cliques = list(as_tuples(g.cliques))
    cliques[k] = cliques[k][:-1]
    return _with_graph(a, cliques=rows_of(cliques))


def _drop_vertex_clique(a):
    # (6,4,2) forgets its first clique, and the profiles are recomputed
    # from the tampered cover, so its recorded degree drops with it
    g = a.graph
    u = g.vertices.index(bytes((6, 4, 2)))
    vertex_cliques = list(as_tuples(g.vertex_cliques))
    vertex_cliques[u] = vertex_cliques[u][1:]
    broken = replace(g, vertex_cliques=rows_of(vertex_cliques))
    return replace(a, graph=broken, profiles=all_profiles(broken, a.geometry))


def _swap_conj(a):
    conj = list(a.graph.conj)
    conj[0], conj[1] = conj[1], conj[0]
    return replace(a, graph=with_conj(a.graph, conj))


def _unsort_vertex(a):
    # (7,1,3,1) is no partition: it has a removable diagonal cell (3,3)
    # and an addable one (2,2)
    g = a.graph
    vertices = list(g.vertices)
    vertices[g.vertices.index(bytes((7, 3, 1, 1)))] = bytes((7, 1, 3, 1))
    return _with_graph(a, vertices=tuple(vertices))


def _join_far_clique_to_source(a):
    # vertex 0 = (n) joins the last clique, whose members lie n-2 and n-1
    # from it, but does not list that clique, so BFS from (n) never scans it
    g = a.graph
    cliques = as_tuples(g.cliques)
    cliques = cliques[:-1] + ((0, *cliques[-1]),)
    return _with_graph(a, cliques=rows_of(cliques))


def _widen_axis(a):
    geom = a.geometry
    first = min(geom.axis)
    return _with_geometry(a, axis=geom.axis | {a.graph.adjacency[first][0]})


def _drop_mediator(a):
    geom = a.geometry
    return _with_geometry(a, spine=geom.spine - {min(geom.spine - geom.axis)})


def _raise_spinal_distance(a):
    # (12) lies 6 from the axis and from the spine, and now 7 from the spine
    sp_dist = list(a.geometry.sp_dist)
    sp_dist[0] = a.geometry.ax_dist[0] + 1
    return _with_geometry(a, sp_dist=tuple(sp_dist))


def _widen_spine(a):
    # the spine gains (8,2,1,1), the first vertex at axial distance 2
    geom = a.geometry
    far = geom.ax_dist.index(2)
    return _with_geometry(a, spine=geom.spine | {far})


TAMPERED = {
    "adjacency_symmetric_irreflexive": (_drop_clique_member, "clique 1 is not the upper covers of one partition of n-1"),
    "degree_sum": (_drop_vertex_clique, "6,4,2 has cover degree 6, closed form 9"),
    "conjugation_automorphism": (
        _swap_conj,
        "clique (12; 11,1) does not map onto clique "
        "(3,1,1,1,1,1,1,1,1,1; 2,2,1,1,1,1,1,1,1,1; 2,1,1,1,1,1,1,1,1,1,1) reversed",
    ),
    "diagonal_corner_exclusivity": (_unsort_vertex, "7,1,3,1 has both diagonal corner kinds"),
    "bfs_triangle": (_join_far_clique_to_source, "edge (0,76) jumps 0->11 from v0"),
    "axis_edgeless": (_widen_axis, "axis vertices 7,2,1,1,1 and 6,2,1,1,1,1 are adjacent"),
    "spine_membership": (_drop_mediator, "6,3,1,1,1 misclassified for the spine"),
    "spine_sandwich": (_widen_spine, "spine vertex 8,2,1,1 at axial distance 2"),
    "filtration_sandwich": (_raise_spinal_distance, "12 lies 6 from the axis and 7 from the spine"),
}


def _swap_cliques(a, k):
    # cliques k and k+1 trade ids; each vertex row is relabelled and
    # re-sorted, so vertex_cliques stays the transpose of the cover
    g = a.graph
    cliques = list(as_tuples(g.cliques))
    cliques[k], cliques[k + 1] = cliques[k + 1], cliques[k]
    relabel = {k: k + 1, k + 1: k}
    vertex_cliques = [sorted(relabel.get(c, c) for c in row) for row in as_tuples(g.vertex_cliques)]
    return _with_graph(a, cliques=rows_of(cliques), vertex_cliques=rows_of(vertex_cliques))


def _duplicate_clique(a, k):
    # clique k comes twice, as ids k and k+1, and its members list both
    g = a.graph
    cliques = list(as_tuples(g.cliques))
    cliques.insert(k + 1, cliques[k])
    vertex_cliques = [
        sorted([c + (c > k) for c in row] + [k + 1] * (k in row)) for row in as_tuples(g.vertex_cliques)
    ]
    return _with_graph(a, cliques=rows_of(cliques), vertex_cliques=rows_of(vertex_cliques))


def test_adjacency_check_states_the_descending_nu_order():
    # Cliques 0 and 1 cover nu = (11) and (10,1). Swapped, the cover still
    # holds every edge once and no clique twice, so the rows and the
    # twin are unchanged; only the order clause rejects it.
    a = analyze(12)
    broken = _swap_cliques(a, 0)
    assert CHECKS["adjacency_symmetric_irreflexive"](broken) == (
        False, "clique 1 does not cover a partition of n-1 below clique 0's"
    )
    assert CHECK_TWINS["adjacency_symmetric_irreflexive"](broken) == (True, "")


def test_adjacency_check_rejects_a_duplicated_clique():
    broken = _duplicate_clique(analyze(12), 5)
    assert CHECKS["adjacency_symmetric_irreflexive"](broken) == (
        False, "clique 6 does not cover a partition of n-1 below clique 5's"
    )


def test_filtration_sandwich_ties_the_balls_of_radius_0_to_axis_and_spine():
    # The distances are untouched, so the per-vertex clause and the ball
    # twin pass; the axis and the spine no longer are those balls.
    a = analyze(12)
    widened = _widen_axis(a)
    assert CHECKS["filtration_sandwich"](widened) == (False, "central region r=0 is not the axis")
    assert CHECK_TWINS["filtration_sandwich"](widened) == (True, "")
    narrowed = _drop_mediator(a)
    assert CHECKS["filtration_sandwich"](narrowed) == (False, "thick spine r=0 is not the spine")


def _split_largest_clique(a):
    # clique 23, the upper covers of (5,3,2,1) and the first of five
    # members, becomes its ten edges: the rows are unchanged, but no
    # cover clique through (6,3,2,1) has five members
    g = a.graph
    cliques = list(as_tuples(g.cliques))
    k = 23
    edges = list(combinations(cliques[k], 2))
    vertex_cliques = [list(row) for row in as_tuples(g.vertex_cliques)]
    for u in set(cliques[k]) - set(edges[0]):
        vertex_cliques[u].remove(k)
    cliques[k] = edges[0]
    cliques += edges[1:]
    for i, edge in enumerate(edges[1:], len(g.cliques)):
        for u in edge:
            vertex_cliques[u].append(i)
    return _with_graph(a, cliques=rows_of(cliques), vertex_cliques=rows_of(vertex_cliques))


def test_clique_oracle_and_its_subset_twin_reject_a_split_clique(monkeypatch):
    a = analyze(12)
    broken = _split_largest_clique(a)
    assert broken.graph.adjacency == a.graph.adjacency
    detail = "omega_loc disagreement at 6,3,2,1: count=4, oracle=5"
    assert CHECKS["clique_oracle"](broken) == (False, detail)
    monkeypatch.setattr(checks, "local_clique_number_oracle", local_clique_number_by_subsets)
    assert CHECKS["clique_oracle"](a) == (True, "")
    assert CHECKS["clique_oracle"](broken) == (False, detail)


@pytest.mark.parametrize(
    "name, limit_kib",
    [("filtration_sandwich", 64), ("adjacency_symmetric_irreflexive", 96), ("conjugation_automorphism", 16)],
)
def test_check_peak_at_n30_stays_small(name, limit_kib):
    # Each check reads the analysis per vertex or per clique and builds
    # no set of p(n) vertices or cliques, and no list of p(n) values: the
    # ball form of the sandwich peaked at 2085 KiB, the adjacency check's
    # two row-length lists at 138 KiB, and the automorphism check's set of
    # every clique's bytes with a conjugated copy of the cover at 459 KiB.
    a = analyze(30)
    a.graph.conj  # the graph builds and keeps conj on first use
    tracemalloc.start()
    try:
        outcome = CHECKS[name](a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome == (True, "")
    assert peak < limit_kib * 1024


def test_run_checks_builds_conj_before_the_first_check(monkeypatch):
    # conj is built on first use; built inside conjugation_involution, the
    # first check that reads it, the check's time would include the build.
    at_call = []

    def recording(analysis):
        at_call.append("conj" in vars(analysis.graph))
        return CHECKS["conjugation_involution"](analysis)

    wrapped = [(name, recording if name == "conjugation_involution" else fn, *rest) for name, fn, *rest in _CHECKS]
    monkeypatch.setattr(checks, "_CHECKS", wrapped)
    assert not any(r.failed for r in checks.run_checks(8))
    assert at_call == [True]


def test_identity_conj_fails_both_conjugation_checks():
    # The identity is an involution and an automorphism: it maps every
    # clique onto itself, so the row twin passes it. It breaks the
    # reversal law, as conjugation maps each clique onto one read
    # backwards, and it is not the partitions' transpose.
    a = analyze(12)
    broken = replace(a, graph=with_conj(a.graph, range(a.graph.num_vertices)))
    assert CHECKS["conjugation_involution"](a) == (True, "")
    assert CHECK_TWINS["conjugation_automorphism"](broken) == (True, "")
    assert CHECKS["conjugation_automorphism"](broken) == (
        False, "clique (12; 11,1) does not map onto clique (12; 11,1) reversed"
    )
    assert CHECKS["conjugation_involution"](broken) == (
        False, "conj maps 12 to 12, not its transpose"
    )


def test_conjugation_involution_ties_the_axis_to_conj(monkeypatch):
    # compute_axis builds the axis from the parts, not from conj. An axis
    # that misses the self-conjugate (6,2,1,1,1,1) is consistent with the
    # geometry and profiles recomputed from it, so only the comparison
    # with conj's fixed points rejects it.
    a = analyze(12)
    dropped = min(a.geometry.axis)
    monkeypatch.setattr(axial, "compute_axis", lambda g: a.geometry.axis - {dropped})
    geometry = axial_geometry(a.graph)
    broken = replace(a, geometry=geometry, profiles=all_profiles(a.graph, geometry))
    assert CHECKS["conjugation_involution"](a) == (True, "")
    assert CHECKS["conjugation_involution"](broken) == (
        False, f"the axis misses {format_partition(a.graph.vertices[dropped])}, which conj fixes"
    )
    assert [name for name, fn in CHECKS.items() if not fn(broken)[0]] == ["conjugation_involution"]


def test_bfs_triangle_reads_the_recorded_distances():
    # (12) and (1^12) record axis and spine distances 2 above what BFS
    # gives; these are the arrays report and export print, so a check
    # that ran its own BFS from the axis and the spine would pass them.
    a = analyze(12)
    ends = {0, a.graph.vertices.index(bytes((1,) * 12))}
    raised = {
        field: tuple(d + 2 if v in ends else d for v, d in enumerate(getattr(a.geometry, field)))
        for field in ("ax_dist", "sp_dist")
    }
    broken = _with_geometry(a, **raised)
    assert CHECKS["bfs_triangle"](broken) == (False, "edge (1,0) jumps 5->8 from axis")
    assert CHECK_TWINS["bfs_triangle"](broken)[0] is False


def test_bfs_triangle_pins_the_distances_from_below():
    # (12) and (1^12) record axis and spine distances 1 below what BFS
    # gives, and the shells follow the arrays. The arrays still step by at
    # most 1 along every edge, so only the step down towards the sources
    # rejects them.
    a = analyze(12)
    ends = {0, a.graph.vertices.index(bytes((1,) * 12))}
    lowered = {}
    for dist_field, shells_field in (("ax_dist", "ax_shells"), ("sp_dist", "sp_shells")):
        dist = tuple(d - 1 if v in ends else d for v, d in enumerate(getattr(a.geometry, dist_field)))
        counts = Counter(dist)
        lowered[dist_field] = dist
        lowered[shells_field] = tuple(counts[r] for r in range(max(dist) + 1))
    broken = _with_geometry(a, **lowered)
    assert CHECKS["bfs_triangle"](broken) == (
        False, "vertex 0 at distance 5 from axis has no neighbour at 4"
    )
    assert CHECK_TWINS["bfs_triangle"](broken)[0] is False
    assert [name for name, fn in CHECKS.items() if not fn(broken)[0]] == ["bfs_triangle"]


def test_bfs_triangle_rejects_a_clique_of_reached_and_unreached_vertices():
    # (1^12) is recorded as unreached from the axis, beside (2,1^10) at 5
    a = analyze(12)
    last = a.graph.num_vertices - 1
    ax_dist = a.geometry.ax_dist[:last] + (UNREACHABLE,)
    broken = _with_geometry(a, ax_dist=ax_dist)
    assert CHECKS["bfs_triangle"](broken) == (False, "edge (75,76) leaves the vertices reached from axis")
    assert CHECK_TWINS["bfs_triangle"](broken)[0] is False


def test_bfs_triangle_pins_distance_0_to_the_sources():
    # the axis gains a neighbour of an axis vertex, recorded at distance 1
    broken = _widen_axis(analyze(12))
    assert CHECKS["bfs_triangle"](broken) == (False, "vertex 17 at distance 1 from axis is a source")
    assert CHECK_TWINS["bfs_triangle"](broken)[0] is False


def test_shell_sums_compares_the_shells_with_the_distances():
    # One vertex moves from axial shell 1 to shell 2: the sums and shell
    # 0 still hold, and no other check reads the shells past shell 0.
    a = analyze(12)
    assert a.geometry.ax_shells == (3, 20, 26, 12, 12, 2, 2)
    broken = _with_geometry(a, ax_shells=(3, 19, 27, 12, 12, 2, 2))
    assert CHECKS["shell_sums"](broken) == (
        False, "axial shell 1 is 19, but 20 vertices lie at distance 1"
    )
    assert [name for name, fn in CHECKS.items() if not fn(broken)[0]] == ["shell_sums"]


def _with_profile(a, inv, **fields):
    return replace(a, profiles={**a.profiles, inv: replace(a.profiles[inv], **fields)})


def test_degree_sum_reads_the_recorded_degrees():
    # (12) records degree 2 for its one transfer. The cover is untouched,
    # so a check that recomputed the degrees from it would pass; these are
    # the degrees export prints and report ranks.
    a = analyze(12)
    degrees = a.profiles[DEG].values
    broken = _with_profile(a, DEG, values=(degrees[0] + 1, *degrees[1:]))
    assert CHECKS["degree_sum"](broken) == (False, "12 has cover degree 2, closed form 1")
    assert [name for name, fn in CHECKS.items() if not fn(broken)[0]] == ["degree_sum"]


def _raise_deg_max(a):
    # deg peaks at 14, on (5,3,2,1,1) alone
    return _with_profile(a, DEG, max_value=15)


def _raise_deg_radii(a):
    # (5,3,2,1,1) lies on the axis, so both radii are 0; 1 and 1 still
    # satisfy rho_sp <= rho_ax <= rho_sp + 1 and the n <= 30 radius bounds
    deg = a.profiles[DEG]
    return _with_profile(a, DEG, rho_ax=deg.rho_ax + 1, rho_sp=deg.rho_sp + 1)


def _drop_argmax_pair(a):
    # (6,3,2,1) and its conjugate (4,3,2,1,1,1) leave both clique argmax
    # sets; what is left is still conjugation-closed, odd and on the axis
    vertices = a.graph.vertices
    pair = {vertices.index(bytes((6, 3, 2, 1))), vertices.index(bytes((4, 3, 2, 1, 1, 1)))}
    argmax = a.profiles[OMEGA_LOC].argmax - pair
    return _with_profile(_with_profile(a, OMEGA_LOC, argmax=argmax), DIM_LOC, argmax=argmax)


EXTREMAL_TAMPERED = {
    "deg_max_raised": (_raise_deg_max, "argmax_symmetry", "deg: max 15, but the values peak at 14"),
    "deg_radii_raised": (_raise_deg_radii, "radius_comparison", "deg: radii (1,1), but the argmax reaches (0,0)"),
    "clique_argmax_pair_dropped": (
        _drop_argmax_pair, "argmax_symmetry", "omega_loc: argmax is not the set of vertices at 5"
    ),
}


@pytest.mark.parametrize("tamper_name", sorted(EXTREMAL_TAMPERED))
def test_extremal_table_is_rederived(tamper_name):
    # Each tamper changes a cell of extremal_location.csv at n = 12 and
    # keeps every other check's premises, so one check alone rejects it.
    tamper, name, detail = EXTREMAL_TAMPERED[tamper_name]
    broken = tamper(analyze(12))
    assert CHECKS[name](broken) == (False, detail)
    assert [check for check, fn in CHECKS.items() if not fn(broken)[0]] == [name]


def test_clique_oracle_names_a_vertex_past_the_degree_bound():
    # vertex 0 lies in one 27-member clique, so it has 26 neighbours
    a = analyze(9)
    vertex_cliques = ((0,),) * 27 + ((),) * (a.graph.num_vertices - 27)
    broken = _with_graph(a, cliques=rows_of((range(27),)), vertex_cliques=rows_of(vertex_cliques))
    assert CHECKS["clique_oracle"](broken) == (False, "vertex 0 exceeds the oracle degree bound")


@pytest.mark.parametrize("name", sorted(CHECK_TWINS))
def test_tampered_input_fails_check_and_twin(name):
    tamper, detail = TAMPERED[name]
    a = analyze(12)
    assert CHECKS[name](a) == (True, "")
    broken = tamper(a)
    assert CHECKS[name](broken) == (False, detail)
    assert CHECK_TWINS[name](broken)[0] is False
