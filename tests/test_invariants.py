import csv
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from partition_axis import (
    OracleInfeasibleError,
    all_profiles,
    build_graph,
    local_clique_number,
    local_clique_number_oracle,
)
from partition_axis.checks import _check_argmax_symmetry, _check_dim_shift
from partition_axis.graph import UNREACHABLE
from partition_axis.invariants import DEG, DIM_LOC, INVARIANTS, OMEGA_LOC, _enclosing_radius

from layout import with_conj
from memo import analyze
from oracles import (
    local_clique_number_by_moves,
    local_clique_number_by_subsets,
    local_clique_numbers_by_search,
)

GOLDEN = Path(__file__).parent / "golden"


def staircase(n):
    """1 + max{k : T_k < n}, T_k = k(k+1)/2: the largest omega_loc over the
    partitions of n.

    The donor cliques of local_clique_number are the upper-cover sets of
    the nu |- n-1, so they peak at 1 + K(n-1), where K(m) = max{k : T_k <= m}
    is the most distinct parts a partition of m has (k of them take T_k
    cells; (k + m - T_k, k-1, ..., 1) has k). A receiver clique of size
    k(mu) >= k needs mu |- n+1 >= T_k, and then n - 1 >= T_k - 2 >= T_(k-1)
    for k >= 2, so the donor half reaches k too.
    """
    k = 0
    while (k + 1) * (k + 2) // 2 < n:
        k += 1
    return 1 + k


class TestLocalCliqueNumber:
    def test_isolated_vertex(self):
        a = analyze(1)
        assert local_clique_number(a.graph, 0) == 1

    def test_degree_one_scores_two(self):
        g = analyze(2).graph
        assert local_clique_number(g, 0) == 2

    def test_triangle_member(self):
        # (2,2) has exactly the neighbors (3,1) and (2,1,1), themselves adjacent
        g = analyze(4).graph
        v = g.vertices.index(bytes((2, 2)))
        assert len(g.adjacency[v]) == 2
        assert local_clique_number(g, v) == 3

    def test_path_center(self):
        # (2,1) sits between (3) and (1,1,1), which are not adjacent
        g = analyze(3).graph
        v = g.vertices.index(bytes((2, 1)))
        assert local_clique_number(g, v) == 2

    def test_n29_max_is_eight(self):
        assert analyze(29).profiles[OMEGA_LOC].max_value == 8


class TestOracle:
    def test_agrees_through_n10(self):
        for n in range(1, 11):
            g = analyze(n).graph
            for v in range(g.num_vertices):
                assert local_clique_number(g, v) == local_clique_number_oracle(g, v)

    def test_level_wise_search_agrees_with_subsets_and_pivoted_search_through_n14(self):
        for n in range(1, 15):
            g = analyze(n).graph
            searched = local_clique_numbers_by_search(g)
            for v in range(g.num_vertices):
                level_wise = local_clique_number_oracle(g, v)
                assert level_wise == local_clique_number_by_subsets(g, v) == searched[v], (n, v)

    def test_agrees_with_pivoted_search_through_n30(self):
        for n in range(1, 31):
            g = analyze(n).graph
            searched = local_clique_numbers_by_search(g)
            for v in range(g.num_vertices):
                assert local_clique_number(g, v) == searched[v], (n, v)

    @pytest.mark.parametrize("n", range(31, 35))
    def test_agrees_with_move_count_past_n30(self, n):
        g = build_graph(n)
        for v in range(g.num_vertices):
            assert local_clique_number(g, v) == local_clique_number_by_moves(g, v), (n, v)

    def test_isolated(self):
        assert local_clique_number_oracle(analyze(1).graph, 0) == 1

    def test_infeasible_above_degree_bound(self):
        g = analyze(22).graph
        big = max(range(g.num_vertices), key=lambda v: len(g.adjacency[v]))
        assert len(g.adjacency[big]) > 25
        with pytest.raises(OracleInfeasibleError):
            local_clique_number_oracle(g, big)


class TestProfile:
    def test_n13_degree(self):
        p = analyze(13).profiles[DEG]
        assert p.max_value == 14
        assert len(p.argmax) == 6
        assert p.rho_ax == 2
        assert p.rho_sp == 1

    def test_n28_omega(self):
        p = analyze(28).profiles[OMEGA_LOC]
        assert (p.max_value, len(p.argmax), p.rho_ax, p.rho_sp) == (7, 287, 4, 4)

    def test_max_omega_is_the_triangular_staircase(self):
        with open(GOLDEN / "extremal_location.csv", newline="") as f:
            golden = {
                int(row["n"]): int(row["max"])
                for row in csv.DictReader(f)
                if row["invariant"] == OMEGA_LOC
            }
        assert sorted(golden) == list(range(1, 31))
        for n in range(1, 31):
            assert analyze(n).profiles[OMEGA_LOC].max_value == staircase(n) == golden[n], n

    def test_axisless_radii_undefined(self):
        p = analyze(2).profiles[DEG]
        assert p.max_value == 1
        assert len(p.argmax) == 2
        assert p.rho_ax is None and p.rho_sp is None

    def test_dim_is_omega_shifted(self):
        a = analyze(12)
        om = a.profiles[OMEGA_LOC]
        dm = a.profiles[DIM_LOC]
        assert dm.values is None
        assert dm.max_value == om.max_value - 1
        assert dm.argmax == om.argmax
        assert (dm.rho_ax, dm.rho_sp) == (om.rho_ax, om.rho_sp)

    def test_profile_peak_at_n30_stays_small(self):
        # Two p-length tuples of values (deg and omega_loc) and no third:
        # with dim_loc's shifted copy of omega_loc's values the stage
        # peaked at 140 KiB.
        a = analyze(30)
        a.graph.incidence_sizes  # the graph builds and keeps it on first use
        tracemalloc.start()
        try:
            profiles = all_profiles(a.graph, a.geometry)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profiles[DIM_LOC].values is None
        assert peak < 110 * 1024

    def test_argmax_is_value_level_set(self):
        a = analyze(11)
        for inv in INVARIANTS:
            p = a.profiles[inv]
            # dim_loc keeps no values: they are omega_loc's less one
            values, shift = (a.profiles[OMEGA_LOC].values, 1) if inv == DIM_LOC else (p.values, 0)
            assert p.argmax == frozenset(v for v, x in enumerate(values) if x == p.max_value + shift)
            assert p.argmax

    def test_radius_comparison(self):
        for n in range(3, 19):
            for inv in INVARIANTS:
                p = analyze(n).profiles[inv]
                assert p.rho_sp <= p.rho_ax <= p.rho_sp + 1

    def test_omega_bounded_by_degree(self):
        a = analyze(14)
        deg = a.profiles[DEG].values
        om = a.profiles[OMEGA_LOC].values
        for v in range(a.graph.num_vertices):
            assert om[v] <= deg[v] + 1
            if deg[v] >= 1:
                assert om[v] >= 2


class TestEnclosingRadius:
    def test_any_unreachable_maximizer_gives_none(self):
        assert _enclosing_radius(frozenset({0, 1}), (3, UNREACHABLE)) is None
        assert _enclosing_radius(frozenset({1}), (3, UNREACHABLE)) is None


class TestArgmaxSymmetry:
    def test_n10_omega(self):
        a = analyze(10)
        p = a.profiles[OMEGA_LOC]
        assert len(p.argmax) == 24
        assert len(p.argmax & a.geometry.axis) == 2
        assert _check_argmax_symmetry(a) == (True, "")

    def test_n21_unique_maximizer_is_axial(self):
        a = analyze(21)
        p = a.profiles[DEG]
        assert len(p.argmax) == 1
        (v,) = p.argmax
        assert v in a.geometry.axis
        assert _check_argmax_symmetry(a) == (True, "")

    def test_holds_for_all_invariants_small_range(self):
        for n in range(1, 15):
            assert _check_argmax_symmetry(analyze(n)) == (True, "")

    def test_detects_broken_symmetry(self):
        a = analyze(4)
        deg = a.profiles[DEG]
        # a single non-self-conjugate maximizer violates both clauses
        lone = next(v for v in deg.argmax if a.graph.conj[v] != v)
        broken = replace(a, profiles={**a.profiles, DEG: replace(deg, argmax=frozenset([lone]))})
        ok, detail = _check_argmax_symmetry(broken)
        assert not ok
        assert detail == "deg: argmax not conjugation-closed"

    def test_detects_odd_argmax_off_axis(self):
        # With an involutive conj an off-axis closed set is even, so the
        # parity clause needs a tampered conj: a 3-cycle with no fixed point.
        a = analyze(3)
        graph = with_conj(a.graph, (1, 2, 0))
        deg = replace(a.profiles[DEG], argmax=frozenset({0, 1, 2}))
        broken = replace(a, graph=graph, profiles={**a.profiles, DEG: deg})
        assert _check_argmax_symmetry(broken) == (False, "deg: odd argmax avoids the axis")


class TestDimShift:
    @pytest.mark.parametrize("field, tamper, detail", [
        ("max_value", lambda p: p.max_value + 1, "dim_loc's max is not omega_loc's less one"),
        ("argmax", lambda p: p.argmax - {min(p.argmax)}, "dim_loc argmax differs from omega_loc argmax"),
        ("rho_ax", lambda p: p.rho_ax + 1, "dim_loc radii differ from omega_loc radii"),
        ("rho_sp", lambda p: p.rho_sp + 1, "dim_loc radii differ from omega_loc radii"),
    ])
    def test_detects_tampered_dim_loc(self, field, tamper, detail):
        a = analyze(12)
        dim = a.profiles[DIM_LOC]
        tampered = replace(dim, **{field: tamper(dim)})
        broken = replace(a, profiles={**a.profiles, DIM_LOC: tampered})
        assert _check_dim_shift(broken) == (False, detail)
