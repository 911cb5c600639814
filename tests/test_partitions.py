import pytest

from partition_axis import (
    conjugate,
    corners,
    enumerate_partitions,
    format_partition,
    is_self_conjugate,
    transfer_neighbors,
)
from partition_axis.checks import pentagonal_partition_count
from partition_axis.partitions import ADDABLE, REMOVABLE, validate_partition

from oracles import (
    addable_cells,
    conjugate_by_transposition,
    naive_transfer_neighbors,
    removable_cells,
)


class TestEnumeration:
    def test_n4_order(self):
        assert enumerate_partitions(4) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_n1(self):
        assert enumerate_partitions(1) == [(1,)]

    def test_endpoints(self):
        parts = enumerate_partitions(9)
        assert parts[0] == (9,)
        assert parts[-1] == (1,) * 9

    def test_n30_count(self):
        assert len(enumerate_partitions(30)) == 5604

    @pytest.mark.parametrize("n", range(1, 41))
    def test_count_matches_recurrence(self, n):
        assert len(enumerate_partitions(n)) == pentagonal_partition_count(n)

    def test_recurrence_has_no_depth_limit(self):
        # Deeper than the default recursion limit allows a recursive form.
        assert pentagonal_partition_count(1000) == 24061467864032622473692149727991

    def test_all_valid_and_unique(self):
        for n in range(1, 15):
            seen = enumerate_partitions(n)
            assert len(set(seen)) == len(seen)
            for parts in seen:
                validate_partition(parts)
                assert sum(parts) == n

    def test_reverse_lexicographic(self):
        for n in (5, 8, 12):
            parts = enumerate_partitions(n)
            assert parts == sorted(parts, reverse=True)

    @pytest.mark.parametrize("bad", [0, -1, -30])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            enumerate_partitions(bad)


class TestConjugate:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((3, 1), (2, 1, 1)),
            ((2, 2), (2, 2)),
            ((4, 3, 1), (3, 2, 2, 1)),
            ((1,), (1,)),
            ((), ()),
            ((5,), (1, 1, 1, 1, 1)),
            ((1, 1, 1), (3,)),
        ],
    )
    def test_known_values(self, parts, expected):
        assert conjugate(parts) == expected

    def test_matches_cell_transposition(self):
        for n in range(1, 13):
            for parts in enumerate_partitions(n):
                assert conjugate(parts) == conjugate_by_transposition(parts)

    def test_involution(self):
        for parts in enumerate_partitions(11):
            assert conjugate(conjugate(parts)) == parts


class TestSelfConjugate:
    def test_single_cell(self):
        assert is_self_conjugate((1,))

    def test_two_vertices_of_two(self):
        assert not is_self_conjugate((2,))
        assert not is_self_conjugate((1, 1))

    def test_n6_cases(self):
        # (3,1,1,1) and (4,1,1) are each other's conjugates; the staircase
        # (3,2,1) is the only fixed point among partitions of 6.
        assert conjugate((3, 1, 1, 1)) == (4, 1, 1)
        assert not is_self_conjugate((3, 1, 1, 1))
        assert not is_self_conjugate((4, 1, 1))
        assert is_self_conjugate((3, 2, 1))
        fixed = [p for p in enumerate_partitions(6) if is_self_conjugate(p)]
        assert fixed == [(3, 2, 1)]


class TestCorners:
    def test_square_has_diagonal_removable(self):
        found = corners((2, 2))
        removable = [c for c in found if c.kind == REMOVABLE]
        assert removable == [c for c in found if c.diagonal]
        assert len(removable) == 1
        assert (removable[0].row, removable[0].col) == (2, 2)

    def test_single_cell_diagram(self):
        found = corners((1,))
        assert [(c.row, c.col, c.kind, c.diagonal) for c in found] == [
            (1, 1, REMOVABLE, True),
            (1, 2, ADDABLE, False),
            (2, 1, ADDABLE, False),
        ]

    def test_matches_cell_set_oracle(self):
        for n in range(1, 12):
            for parts in enumerate_partitions(n):
                found = corners(parts)
                mine_rm = {(c.row, c.col) for c in found if c.kind == REMOVABLE}
                mine_ad = {(c.row, c.col) for c in found if c.kind == ADDABLE}
                assert mine_rm == removable_cells(parts)
                assert mine_ad == addable_cells(parts)
                assert all(c.diagonal == (c.row == c.col) for c in found)

    def test_no_partition_has_both_diagonal_kinds(self):
        for n in range(1, 21):
            for parts in enumerate_partitions(n):
                kinds = {c.kind for c in corners(parts) if c.diagonal}
                assert kinds != {REMOVABLE, ADDABLE}


class TestTransferNeighbors:
    def test_singleton_is_isolated(self):
        assert transfer_neighbors((1,)) == set()

    def test_two(self):
        assert transfer_neighbors((2,)) == {(1, 1)}
        assert transfer_neighbors((1, 1)) == {(2,)}

    def test_swap_between_equal_parts_is_excluded(self):
        assert transfer_neighbors((2, 1)) == {(3,), (1, 1, 1)}

    def test_matches_naive_index_enumeration(self):
        for n in range(1, 13):
            for parts in enumerate_partitions(n):
                assert transfer_neighbors(parts) == naive_transfer_neighbors(parts)

    def test_symmetry(self):
        for parts in enumerate_partitions(9):
            for other in transfer_neighbors(parts):
                assert parts in transfer_neighbors(other)

    def test_conjugation_is_adjacency_preserving(self):
        for parts in enumerate_partitions(10):
            image = {conjugate(m) for m in transfer_neighbors(parts)}
            assert image == transfer_neighbors(conjugate(parts))


class TestTextForm:
    def test_format(self):
        assert format_partition((3, 2, 1)) == "3,2,1"
        assert format_partition((10,)) == "10"
