import hashlib
import pickle
import sys
import tracemalloc
from dataclasses import replace

import pytest

from partition_axis import UNREACHABLE, bfs_distances, build_graph
from partition_axis.checks import _check_conjugation_automorphism
from partition_axis.invariants import DEG

from layout import as_tuples, with_conj
from memo import analyze
from oracles import (
    bfs_distances_by_rows,
    build_graph_by_index,
    conj_by_lookup,
    graph_by_brute_force,
    naive_transfer_neighbors,
    partitions_by_growth,
    transfer_neighbors,
)


# sha256 of the pickled (protocol 4) decoded graph
# (vertices as tuples, cliques, vertex_cliques, conj), from the build that
# stored each vertex as a tuple of ints.
GRAPH_SHA256 = {
    1: "2b43382300d177be1d75a106e3f2dd6c8bbf99ef5be2c40aff688d9a61ebd8fb",
    2: "d9420ed59021b0479c17b97aabad774c2e0f640149ee7ad44c3a272f81ec10b4",
    3: "52ed1d385848fd054835e4aa38ad117446678cf4122eecca7b9994cce30d4ebc",
    4: "382271747e275b1fe4333067bb6902158cf22d60db7a23432ea9501d38e0f97e",
    5: "f51f8ef449706d3295aa89dcf6562074ee63374c9d345fd154c1753dc642c06e",
    6: "ab5a9d5f8848ae6f995d1ba26eedf356a7ebf116cbdadb5eccf46f0746272ce5",
    7: "2192df077c83faa7885f25c860ee70d1d5dc3d8c8e6f51247cd57cba4fd77123",
    8: "411ce01536e2090617eca28b695803d7410eb29f0f33d75cd2cd4b19a95f3f89",
    9: "5cca68b624c6b664e177b22a07ca7da09f29361f00f93beaa5097e5596a036a6",
    10: "8f76b2800e5d416cb8540e2e8dd573789e7f6ecb84dd2099eef6c97b3c193e7a",
    11: "68754d411f22ccebd680d484bf9cfe3c2f5d609baa2b4f527611fe5a16fcf04c",
    12: "2869990627649ca8996ccac8248dbd86c63ae425ca937c268c7c9670eee3a5b9",
    13: "0fc0b3358e2cdeee50fc9dbd558fc5225168e6074db362480ede8ffd62db93f4",
    14: "4dbe5c4df521b32bd5483822456faf119a53510cd8d80d8f9bb0d7e26d084916",
    15: "1af46f731aa16c24097ad00a49530910079b7d0719184ee43242238a941fa123",
    16: "df8e2fa080c364ec4d5944d1115109f8038340a4eb8f4d5ee0eeccd19adea04b",
    17: "cc8825f40e891bac8e761b1fddb077d496ba682fc2876913e66394f16fe7d676",
    18: "040b54078e56435cdb04220233507109e77e975900fbe40ce7e3cf936d8972a7",
    19: "57c4fa4cec240db43fd3b2d362db2dc262cf1d0c63cf9a04d909a6d8d7f53a48",
    20: "68bbcfc33bf270bdf3ce0e635b0de4e6708629d3fb855355722a2dbe31f21da1",
    21: "093ade3506f02cf8a1b68291f5e16b19381d610fd7c3d1021f4e658a5f3a3aef",
    22: "0845c93740c8d256850b6d73db772bca01fb10ad58c367bc933913a5275ffe8a",
    23: "75362cae7ac5144f134e67c7098eb722411d50bcf76a4ca0d043c8edfaf08cf8",
    24: "5166666eea1e7b3f51ca692e1198bab5bdae65f620fe0ac60cc81cca7cbdd0d5",
    25: "db7936390fa791ecfea846a5bbc61801ec4a0ac95e61476b9476215c3982d75a",
    26: "65e25ab4b86abeb2c3ca3f326b6b5e6e2af6feac20678a92191dc4d660cf217f",
    27: "0772b178027a8baf3e1d4a572656933ff7cf13d189fba9de6ee62b57dee8424d",
    28: "0c0be4c230aef57579899dcbbc213590e739ad663160262a7207120bf2160d40",
    29: "28bfc2abdf6fdb3c4d7eecc91ebef86ea1cf66e7d0adbefea1aa08b668afb676",
    30: "76cbf1860b3ac0e6cc40ed22c09965fa28de6f83ed42b2b67ff2ac9976ef39aa",
}


@pytest.mark.parametrize("n", range(1, 31))
def test_decoded_graph_is_pinned(n):
    g = analyze(n).graph
    decoded = (tuple(map(tuple, g.vertices)), as_tuples(g.cliques), as_tuples(g.vertex_cliques), tuple(g.conj))
    assert hashlib.sha256(pickle.dumps(decoded, protocol=4)).hexdigest() == GRAPH_SHA256[n]


@pytest.mark.parametrize("n", range(1, 31))
def test_vertices_are_descending_bytes_summing_to_n(n):
    vertices = analyze(n).graph.vertices
    assert all(type(v) is bytes and sum(v) == n for v in vertices)
    assert all(a > b for a, b in zip(vertices, vertices[1:]))


def test_bytes_vertices_take_at_most_two_fifths_of_tuples():
    vertices = analyze(30).graph.vertices
    as_bytes = sum(map(sys.getsizeof, vertices))
    as_tuples = sum(sys.getsizeof(tuple(v)) for v in vertices)
    assert as_bytes <= 0.4 * as_tuples


def test_cover_arrays_take_at_most_a_quarter_of_tuples():
    # The tuple form held a tuple per row, and an int object per vertex id
    # and per clique id, shared by the rows.
    g = analyze(30).graph
    rows = (g.cliques, g.vertex_cliques)
    flat = sum(sys.getsizeof(r.members) + sys.getsizeof(r.starts) for r in rows)
    decoded = [as_tuples(r) for r in rows]
    tuples = sum(sys.getsizeof(ts) + sum(map(sys.getsizeof, ts)) for ts in decoded)
    ints = sum(map(sys.getsizeof, range(g.num_vertices))) + sum(map(sys.getsizeof, range(len(g.cliques))))
    assert flat <= (tuples + ints) / 4


@pytest.mark.parametrize("n", [*range(1, 31), 35, 40])
def test_scanned_cover_equals_dict_index_twin(n):
    g, twin = build_graph(n), build_graph_by_index(n)
    assert g.vertices == twin.vertices
    assert g.cliques.members == twin.cliques.members
    assert g.cliques.starts == twin.cliques.starts
    assert g.vertex_cliques.members == twin.vertex_cliques.members
    assert g.vertex_cliques.starts == twin.vertex_cliques.starts


def test_build_peak_is_within_fifteen_percent_of_what_the_graph_keeps():
    # The covers are found by scanning the vertex tuple, so no index from
    # partitions to ids (a dict entry and an int object per vertex) is
    # alive beside the graph; with one, the peak is 1.9 times the graph.
    tracemalloc.start()
    try:
        g = build_graph(30)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_vertices == 5604
    assert peak <= 1.15 * kept


def test_rejects_invalid_n():
    with pytest.raises(ValueError):
        build_graph(0)


def test_n1_single_isolated_vertex():
    g = build_graph(1)
    assert g.vertices == (bytes((1,)),)
    assert g.adjacency == ((),)
    assert tuple(g.conj) == (0,)


def test_n2_conjugate_pair():
    g = build_graph(2)
    assert g.num_vertices == 2
    assert g.num_edges == 1
    assert tuple(g.conj) == (1, 0)
    assert g.adjacency == ((1,), (0,))


@pytest.mark.parametrize("n", range(1, 19))
def test_equals_brute_force_graph(n):
    g = build_graph(n)
    assert (tuple(map(tuple, g.vertices)), g.adjacency, tuple(g.conj)) == graph_by_brute_force(n)


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
    index = {tuple(p): i for i, p in enumerate(g.vertices)}
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


def test_rows_index_like_a_tuple():
    # In range, a negative index counts from the end; out of range, either
    # way, raises IndexError rather than reading across the starts array.
    g = analyze(6).graph
    for rows in (g.cliques, g.vertex_cliques):
        decoded = as_tuples(rows)
        size = len(decoded)
        for i in (0, size - 1, -1, -size):
            assert tuple(rows[i]) == decoded[i]
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                rows[i]


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
    # (12) now maps to (2,1^10), so clique 0, the covers of (11), should
    # map onto the covers of (2,1^9) read backwards. Its image is still an
    # edge, and the check names the first clique that breaks the law.
    a = analyze(12)
    conj = list(a.graph.conj)
    conj[0], conj[1] = conj[1], conj[0]
    broken = replace(a, graph=with_conj(a.graph, conj))
    assert _check_conjugation_automorphism(a) == (True, "")
    assert _check_conjugation_automorphism(broken) == (
        False,
        "clique (12; 11,1) does not map onto clique "
        "(3,1,1,1,1,1,1,1,1,1; 2,2,1,1,1,1,1,1,1,1; 2,1,1,1,1,1,1,1,1,1,1) reversed",
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
    assert tuple(g.conj) == conj_by_lookup(g)


@pytest.mark.parametrize("n", range(1, 21))
def test_conjugation_reverses_clique_members_and_vertex_cliques(n):
    # Transposition maps the clique of nu onto that of its conjugate nu'
    # with the members in reverse order, and the cliques through lambda
    # onto those through lambda' in reverse order; PartitionGraph.conj is
    # read off the cover by the first law and the order of the second.
    g = build_graph(n)
    conj = conj_by_lookup(g)
    cliques, vertex_cliques = as_tuples(g.cliques), as_tuples(g.vertex_cliques)
    clique_ids = {frozenset(members): k for k, members in enumerate(cliques)}
    images = []
    for members in cliques:
        image = clique_ids[frozenset(conj[v] for v in members)]
        assert cliques[image] == tuple(conj[v] for v in reversed(members))
        images.append(image)
    for u, ks in enumerate(vertex_cliques):
        assert vertex_cliques[conj[u]] == tuple(images[k] for k in reversed(ks))


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
        mid = g.vertices.index(bytes((2, 1)))
        dist = bfs_distances(g, [mid])
        assert dist[mid] == 0
        assert dist[g.vertices.index(bytes((3,)))] == 1
        assert dist[g.vertices.index(bytes((1, 1, 1)))] == 1

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
