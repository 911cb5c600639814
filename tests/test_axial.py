import pytest

from partition_axis import (
    UNREACHABLE,
    PartitionGraph,
    central_region,
    compute_axis,
    interaction_graph,
    thick_spine,
)

from layout import rows_of
from memo import analyze
from oracles import conjugate_by_transposition, l1_distance_to_set


def names(analysis, ids):
    return sorted(tuple(analysis.graph.vertices[v]) for v in ids)


class TestAxis:
    def test_n2_axisless(self):
        a = analyze(2)
        assert compute_axis(a.graph) == frozenset()
        assert not a.geometry.is_axial

    def test_n6_staircase_is_the_only_fixed_point(self):
        a = analyze(6)
        assert names(a, a.geometry.axis) == [(3, 2, 1)]

    def test_n8_two_fixed_points(self):
        a = analyze(8)
        assert names(a, a.geometry.axis) == [(3, 3, 2), (4, 2, 1, 1)]

    def test_n30_axis_size(self):
        assert len(analyze(30).geometry.axis) == 18

    def test_axis_is_fixed_point_set(self):
        for n in range(1, 15):
            a = analyze(n)
            g = a.graph
            expected = {v for v in range(g.num_vertices) if g.conj[v] == v}
            assert a.geometry.axis == expected
            transposed = {v for v, p in enumerate(g.vertices) if conjugate_by_transposition(p) == tuple(p)}
            assert a.geometry.axis == transposed


class TestInteractionGraph:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_single_axis_vertex_has_no_pairs(self, n):
        a = analyze(n)
        assert len(a.geometry.axis) == 1
        assert a.geometry.mediators == {}

    def test_n9_two_axial_vertices_never_interact(self):
        a = analyze(9)
        assert len(a.geometry.axis) == 2
        assert a.geometry.mediators == {}
        assert a.geometry.spine == a.geometry.axis

    def test_n8_mediators(self):
        a = analyze(8)
        assert len(a.geometry.mediators) == 1
        (pair,) = a.geometry.mediators
        mediators = a.geometry.mediators[pair]
        assert names(a, mediators) == [(3, 2, 2, 1), (3, 3, 1, 1), (4, 2, 2), (4, 3, 1)]
        # mediators are common neighbors, recomputed from raw adjacency
        alpha, beta = pair
        common = set(a.graph.adjacency[alpha]) & set(a.graph.adjacency[beta])
        assert mediators == frozenset(common)

    def test_mediator_sets_nonempty(self):
        for n in range(3, 20):
            geom = analyze(n).geometry
            assert all(geom.mediators.values())
            assert all(a < b and {a, b} <= geom.axis for a, b in geom.mediators)

    def test_axial_mediator_is_an_error(self):
        # Hand-made graph: "axis" vertices 0 and 1 share the axial neighbour 2,
        # through the two cliques {0, 2} and {1, 2}.
        g = PartitionGraph(
            n=3,
            vertices=(bytes((3,)), bytes((2, 1)), bytes((1, 1, 1))),
            cliques=rows_of(((0, 2), (1, 2))),
            vertex_cliques=rows_of(((0,), (1,), (0, 1))),
        )
        with pytest.raises(ValueError, match="axial mediator"):
            interaction_graph(g, frozenset({0, 1, 2}))


class TestSpine:
    def test_spine_sizes_from_reference_dataset(self):
        for n, sigma in [(11, 2), (12, 11), (13, 7), (29, 121)]:
            assert len(analyze(n).geometry.spine) == sigma

    def test_spine_is_axis_union_mediators(self):
        for n in range(3, 18):
            geom = analyze(n).geometry
            assert geom.spine == geom.axis.union(*geom.mediators.values())
            rebuilt = set(geom.axis)
            for common in geom.mediators.values():
                rebuilt |= common
            assert geom.spine == rebuilt

    def test_spine_conj_invariant(self):
        for n in range(3, 18):
            a = analyze(n)
            assert frozenset(a.graph.conj[v] for v in a.geometry.spine) == a.geometry.spine

    def test_off_axis_spine_vertices_bridge_two_axis_vertices(self):
        for n in range(3, 18):
            a = analyze(n)
            geom = a.geometry
            for v in range(a.graph.num_vertices):
                if v in geom.axis:
                    continue
                bridges = len(geom.axis & set(a.graph.adjacency[v])) >= 2
                assert bridges == (v in geom.spine)


class TestCentralRegion:
    def test_r0_is_axis(self):
        geom = analyze(12).geometry
        assert central_region(geom, 0) == geom.axis

    def test_n8_narrow_region(self):
        assert len(central_region(analyze(8).geometry, 1)) == 10

    def test_n30_narrow_region(self):
        assert len(central_region(analyze(30).geometry, 1)) == 276

    def test_monotone_and_exhausts_graph(self):
        a = analyze(10)
        geom = a.geometry
        previous = frozenset()
        for r in range(len(geom.ax_shells)):
            region = central_region(geom, r)
            assert previous <= region
            previous = region
        assert previous == frozenset(range(a.graph.num_vertices))

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            central_region(analyze(8).geometry, -1)


class TestThickSpine:
    def test_r0_is_spine(self):
        geom = analyze(8).geometry
        assert thick_spine(geom, 0) == geom.spine

    def test_n8_sandwich_explicit(self):
        geom = analyze(8).geometry
        assert central_region(geom, 1) <= thick_spine(geom, 1) <= central_region(geom, 2)

    def test_sandwich_r0_to_5(self):
        for n in range(3, 21):
            geom = analyze(n).geometry
            for r in range(6):
                assert central_region(geom, r) <= thick_spine(geom, r)
                assert thick_spine(geom, r) <= central_region(geom, r + 1)


class TestShells:
    def test_n8_values(self):
        geom = analyze(8).geometry
        assert geom.ax_shells == (2, 8, 8, 2, 2)
        assert geom.sp_shells == (6, 8, 4, 2, 2)

    def test_shell_zero_and_total(self):
        for n in range(3, 21):
            a = analyze(n)
            ax, sp = a.geometry.ax_shells, a.geometry.sp_shells
            assert ax[0] == len(a.geometry.axis)
            assert sp[0] == len(a.geometry.spine)
            assert sum(ax) == sum(sp) == a.graph.num_vertices

    def test_prefix_sums_match_regions(self):
        for n in (8, 12, 15):
            geom = analyze(n).geometry
            ax, sp = geom.ax_shells, geom.sp_shells
            for r in range(len(ax)):
                assert sum(ax[: r + 1]) == len(central_region(geom, r))
            for r in range(len(sp)):
                assert sum(sp[: r + 1]) == len(thick_spine(geom, r))


class TestAxisless:
    def test_fields_are_empty(self):
        geom = analyze(2).geometry
        assert isinstance(geom.spine, frozenset) and geom.spine == frozenset()
        assert geom.mediators == {}
        assert geom.ax_dist == (UNREACHABLE, UNREACHABLE)
        assert geom.sp_dist == (UNREACHABLE, UNREACHABLE)
        assert geom.ax_shells == ()
        assert geom.sp_shells == ()

    def test_regions_are_empty(self):
        geom = analyze(2).geometry
        for r in range(3):
            assert central_region(geom, r) == frozenset()
            assert thick_spine(geom, r) == frozenset()


def test_interaction_graph_matches_direct_recomputation():
    a = analyze(14)
    pairs = interaction_graph(a.graph, a.geometry.axis)
    assert pairs == a.geometry.mediators
    axis = sorted(a.geometry.axis)
    for i, alpha in enumerate(axis):
        for beta in axis[i + 1 :]:
            common = set(a.graph.adjacency[alpha]) & set(a.graph.adjacency[beta])
            if common:
                assert pairs[(alpha, beta)] == frozenset(common)
            else:
                assert (alpha, beta) not in pairs


@pytest.mark.parametrize("n", range(1, 23))
def test_distances_are_half_l1_to_axis_and_spine(n):
    a = analyze(n)
    geo = a.geometry
    if not geo.is_axial:
        return
    vertices = a.graph.vertices
    axis = [vertices[v] for v in geo.axis]
    spine = [vertices[v] for v in geo.spine]
    for v, parts in enumerate(vertices):
        assert geo.ax_dist[v] == l1_distance_to_set(parts, axis), (n, parts)
        assert geo.sp_dist[v] == l1_distance_to_set(parts, spine), (n, parts)
