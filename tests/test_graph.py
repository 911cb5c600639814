from dataclasses import replace

import pytest

from partition_axis import UNREACHABLE, bfs_distances, build_graph
from partition_axis.checks import _check_conjugation_automorphism
from partition_axis.invariants import DEG

from memo import analyze
from oracles import (
    bfs_distances_by_rows,
    conj_by_lookup,
    graph_by_brute_force,
    naive_transfer_neighbors,
    partitions_by_growth,
    transfer_neighbors,
)


def test_rejects_invalid_n():
    with pytest.raises(ValueError):
        build_graph(0)


def test_n1_single_isolated_vertex():
    g = build_graph(1)
    assert g.vertices == ((1,),)
    assert g.adjacency == ((),)
    assert g.conj == (0,)


def test_n2_conjugate_pair():
    g = build_graph(2)
    assert g.num_vertices == 2
    assert g.num_edges == 1
    assert g.conj == (1, 0)
    assert g.adjacency == ((1,), (0,))


@pytest.mark.parametrize("n", range(1, 19))
def test_equals_brute_force_graph(n):
    g = build_graph(n)
    assert (g.vertices, g.adjacency, g.conj) == graph_by_brute_force(n)


@pytest.mark.parametrize("n", range(1, 19))
def test_clique_cover_matches_brute_force_graph(n):
    # One clique per partition of n-1, each a clique of the brute-force
    # graph; a vertex lies in one clique per distinct part, and the
    # cliques' pairs are exactly the edges.
    g = build_graph(n)
    _, adjacency, _ = graph_by_brute_force(n)
    neighbor_sets = [set(row) for row in adjacency]
    assert len(g.cliques) == len(partitions_by_growth(n - 1))
    for k, clique in enumerate(g.cliques):
        assert list(clique) == sorted(set(clique))
        for i, u in enumerate(clique):
            assert k in g.vertex_cliques[u]
            assert all(v in neighbor_sets[u] for v in clique[i + 1 :])
    for parts, ks in zip(g.vertices, g.vertex_cliques):
        assert list(ks) == sorted(ks)
        assert len(ks) == len(set(parts))
    pairs = sum(len(c) * (len(c) - 1) // 2 for c in g.cliques)
    assert pairs == sum(map(len, adjacency)) // 2 == g.num_edges


@pytest.mark.parametrize("n", range(19, 31))
def test_rows_equal_per_vertex_transfers(n):
    g = build_graph(n)
    index = {p: i for i, p in enumerate(g.vertices)}
    for p, row in zip(g.vertices, g.adjacency):
        assert row == tuple(sorted(index[m] for m in transfer_neighbors(p)))


@pytest.mark.parametrize("n", range(1, 15))
def test_adjacent_iff_componentwise_minimum_has_size_n_minus_1(n):
    # The lemma build_graph rests on: lambda ~ mu exactly when both cover
    # the same partition of n-1, which is then their componentwise minimum.
    vertices = partitions_by_growth(n)
    for lam in vertices:
        neighbors = naive_transfer_neighbors(lam)
        for mu in vertices:
            if mu == lam:
                continue
            width = max(len(lam), len(mu))
            padded = zip(lam + (0,) * (width - len(lam)), mu + (0,) * (width - len(mu)))
            assert (mu in neighbors) == (sum(map(min, padded)) == n - 1), (lam, mu)


def test_vertices_in_enumeration_order_with_index():
    g = build_graph(6)
    for i, parts in enumerate(g.vertices):
        assert g.vertices.index(parts) == i


def test_adjacency_sorted_symmetric_irreflexive():
    for n in range(1, 13):
        g = build_graph(n)
        for u, row in enumerate(g.adjacency):
            assert list(row) == sorted(row)
            assert u not in row
            for v in row:
                assert u in g.adjacency[v]


def test_adjacency_rows_are_built_once_on_request():
    g = build_graph(9)
    assert "adjacency" not in vars(g)
    rows = g.adjacency
    assert g.adjacency is rows
    assert rows == graph_by_brute_force(9)[1]


def test_conjugation_automorphism_check_reports_first_broken_edge():
    a = analyze(12)
    conj = list(a.graph.conj)
    conj[0], conj[1] = conj[1], conj[0]
    broken = replace(a, graph=replace(a.graph, conj=tuple(conj)))
    assert _check_conjugation_automorphism(a) == (True, "")
    assert _check_conjugation_automorphism(broken) == (
        False, "edge (11,1,10,2) breaks under conjugation"
    )


@pytest.mark.parametrize("n", range(1, 31))
def test_degree_is_transfer_count(n):
    a = analyze(n)
    deg = a.profiles[DEG].values
    assert deg == tuple(len(transfer_neighbors(parts)) for parts in a.graph.vertices)


def test_conj_is_involutive_automorphism():
    for n in range(1, 13):
        g = build_graph(n)
        assert [g.conj[g.conj[v]] for v in range(g.num_vertices)] == list(range(g.num_vertices))
        neighbor_sets = [set(row) for row in g.adjacency]
        for u, row in enumerate(g.adjacency):
            for v in row:
                assert g.conj[v] in neighbor_sets[g.conj[u]]


@pytest.mark.parametrize("n", [*range(1, 31), 35])
def test_conj_equals_per_vertex_lookup(n):
    g = build_graph(n)
    assert g.conj == conj_by_lookup(g)


@pytest.mark.parametrize("n", range(1, 21))
def test_conjugation_reverses_clique_members_and_vertex_cliques(n):
    # Transposition maps the clique of nu onto that of its conjugate nu'
    # with the members in reverse order, and the cliques through lambda
    # onto those through lambda' in reverse order; build_graph reads conj
    # off the cover by these two laws.
    g = build_graph(n)
    conj = conj_by_lookup(g)
    clique_ids = {frozenset(members): k for k, members in enumerate(g.cliques)}
    images = []
    for members in g.cliques:
        image = clique_ids[frozenset(conj[v] for v in members)]
        assert g.cliques[image] == tuple(conj[v] for v in reversed(members))
        images.append(image)
    for u, ks in enumerate(g.vertex_cliques):
        assert g.vertex_cliques[conj[u]] == tuple(images[k] for k in reversed(ks))


def test_max_degree_n10():
    g = build_graph(10)
    assert max(len(row) for row in g.adjacency) == 12


def test_degree_examples():
    g = build_graph(1)
    assert len(g.adjacency[0]) == 0

    g6 = build_graph(6)
    degs = [len(row) for row in g6.adjacency]
    assert max(degs) == 6
    assert degs.count(6) == 1


class TestBfs:
    def test_all_sources_all_zero(self):
        g = build_graph(6)
        assert bfs_distances(g, range(g.num_vertices)) == [0] * g.num_vertices

    def test_three_vertex_path(self):
        g = build_graph(3)
        mid = g.vertices.index((2, 1))
        dist = bfs_distances(g, [mid])
        assert dist[mid] == 0
        assert dist[g.vertices.index((3,))] == 1
        assert dist[g.vertices.index((1, 1, 1))] == 1

    def test_empty_sources_all_unreachable(self):
        g = build_graph(5)
        dist = bfs_distances(g, [])
        assert dist == [UNREACHABLE] * g.num_vertices
        assert 0 not in dist

    def test_triangle_inequality_on_edges(self):
        g = build_graph(9)
        dist = bfs_distances(g, [0])
        for u, row in enumerate(g.adjacency):
            for v in row:
                assert abs(dist[u] - dist[v]) <= 1

    @pytest.mark.parametrize("n", range(1, 23))
    def test_distance_from_single_part_is_n_minus_largest_part(self, n):
        # (n,) is vertex 0; half the L1 distance to it is n - parts[0]
        g = build_graph(n)
        dist = bfs_distances(g, [0])
        assert dist == [n - parts[0] for parts in g.vertices]

    @pytest.mark.parametrize("n", range(1, 31))
    def test_clique_walk_matches_row_scanning_twin(self, n):
        a = analyze(n)
        g, geo = a.graph, a.geometry
        for sources in ([0], geo.axis, geo.spine):
            assert bfs_distances(g, sources) == bfs_distances_by_rows(g.adjacency, sources)

    def test_conj_invariant_for_conj_invariant_sources(self):
        for n in range(3, 13):
            g = build_graph(n)
            axis = [v for v in range(g.num_vertices) if g.conj[v] == v]
            if not axis:
                continue
            dist = bfs_distances(g, axis)
            for v in range(g.num_vertices):
                assert dist[v] == dist[g.conj[v]]


def test_degree_sum_is_twice_edge_count():
    for n in range(1, 13):
        g = build_graph(n)
        assert sum(len(row) for row in g.adjacency) == 2 * g.num_edges
