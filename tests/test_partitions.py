import pytest

from partition_axis import conjugate, enumerate_partitions, format_partition
from partition_axis.partitions import MAX_N
from partition_axis.checks import pentagonal_partition_count

from oracles import (
    cells,
    conjugate_by_transposition,
    is_downward_closed,
    naive_transfer_neighbors,
    transfer_neighbors,
)


class TestEnumeration:
    def test_n4_order(self):
        assert list(map(tuple, enumerate_partitions(4))) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_n1(self):
        assert list(map(tuple, enumerate_partitions(1))) == [(1,)]

    def test_endpoints(self):
        parts = enumerate_partitions(9)
        assert tuple(parts[0]) == (9,)
        assert tuple(parts[-1]) == (1,) * 9

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
                assert min(parts) >= 1 and is_downward_closed(cells(parts))
                assert sum(parts) == n

    def test_reverse_lexicographic(self):
        for n in (5, 8, 12):
            parts = enumerate_partitions(n)
            assert parts == sorted(parts, reverse=True)

    @pytest.mark.parametrize("bad", [0, -1, -30])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            enumerate_partitions(bad)

    @pytest.mark.parametrize("bad", [MAX_N + 1, 1000])
    def test_rejects_n_beyond_one_byte_per_part(self, bad):
        # The bound is checked before the first partition is built.
        with pytest.raises(ValueError, match=f"at most {MAX_N}"):
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
            ((3, 1, 1, 1), (4, 1, 1)),
        ],
    )
    def test_known_values(self, parts, expected):
        assert tuple(conjugate(parts)) == expected

    def test_matches_cell_transposition(self):
        for n in range(1, 13):
            for parts in enumerate_partitions(n):
                assert tuple(conjugate(parts)) == conjugate_by_transposition(parts)

    def test_involution(self):
        for parts in enumerate_partitions(11):
            assert conjugate(conjugate(parts)) == parts


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
            for parts in map(tuple, enumerate_partitions(n)):
                assert transfer_neighbors(parts) == naive_transfer_neighbors(parts)

    def test_symmetry(self):
        for parts in map(tuple, enumerate_partitions(9)):
            for other in transfer_neighbors(parts):
                assert parts in transfer_neighbors(other)

    def test_conjugation_is_adjacency_preserving(self):
        for parts in map(tuple, enumerate_partitions(10)):
            image = {tuple(conjugate(m)) for m in transfer_neighbors(parts)}
            assert image == transfer_neighbors(tuple(conjugate(parts)))


class TestTextForm:
    def test_format(self):
        assert format_partition((3, 2, 1)) == "3,2,1"
        assert format_partition((10,)) == "10"
