from hypothesis import given, settings
from hypothesis import strategies as st

from partition_axis import conjugate, corners, is_self_conjugate, transfer_neighbors
from partition_axis.partitions import ADDABLE, REMOVABLE, validate_partition

from oracles import (
    addable_cells,
    conjugate_by_transposition,
    naive_transfer_neighbors,
    removable_cells,
    transfer_moves,
)


@st.composite
def partitions(draw, max_n=28):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    remaining, cap = n, n
    while remaining:
        k = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(k)
        remaining -= k
        cap = k
    return tuple(parts)


@given(partitions())
def test_conjugate_is_involutive(parts):
    assert conjugate(conjugate(parts)) == parts


@given(partitions())
def test_conjugate_preserves_total(parts):
    assert sum(conjugate(parts)) == sum(parts)


@given(partitions())
def test_conjugate_matches_transposition_oracle(parts):
    assert conjugate(parts) == conjugate_by_transposition(parts)


@given(partitions())
def test_self_conjugate_agrees_with_conjugate(parts):
    assert is_self_conjugate(parts) == (conjugate(parts) == parts)


@given(partitions(max_n=20))
def test_transfers_land_on_valid_partitions(parts):
    n = sum(parts)
    for other in transfer_neighbors(parts):
        validate_partition(other)
        assert sum(other) == n
        assert other != parts


@given(partitions())
def test_transfers_match_naive_index_enumeration(parts):
    assert transfer_neighbors(parts) == naive_transfer_neighbors(parts)


@given(partitions())
def test_each_move_gives_a_distinct_neighbor(parts):
    # local_clique_number_by_moves counts moves, so it relies on this bijection
    count = len(naive_transfer_neighbors(parts))
    assert len(transfer_moves(parts)) == len(transfer_neighbors(parts)) == count


@settings(max_examples=60)
@given(partitions(max_n=18))
def test_transfer_relation_is_symmetric(parts):
    for other in transfer_neighbors(parts):
        assert parts in transfer_neighbors(other)


@settings(max_examples=60)
@given(partitions(max_n=18))
def test_conjugation_commutes_with_transfers(parts):
    image = {conjugate(m) for m in transfer_neighbors(parts)}
    assert image == transfer_neighbors(conjugate(parts))


@given(partitions(max_n=22))
def test_corner_removal_and_addition_stay_valid(parts):
    for c in corners(parts):
        moved = list(parts) + [0]
        if c.kind == REMOVABLE:
            moved[c.row - 1] -= 1
            expected_total = sum(parts) - 1
        else:
            moved[c.row - 1] += 1
            expected_total = sum(parts) + 1
        trimmed = tuple(x for x in moved if x > 0)
        if trimmed:
            validate_partition(trimmed)
        assert sum(trimmed) == expected_total


@given(partitions(max_n=18))
def test_corners_match_cell_set_oracle(parts):
    found = corners(parts)
    assert {(c.row, c.col) for c in found if c.kind == REMOVABLE} == removable_cells(parts)
    assert {(c.row, c.col) for c in found if c.kind == ADDABLE} == addable_cells(parts)


@given(partitions())
def test_diagonal_corner_kinds_are_exclusive(parts):
    kinds = {c.kind for c in corners(parts) if c.diagonal}
    assert kinds != {REMOVABLE, ADDABLE}


@given(partitions())
def test_self_conjugate_iff_transpose_fixed_cells(parts):
    # fixed under transposition <=> every cell's mirror is present
    from oracles import cells

    diagram = cells(parts)
    mirrored = {(j, i) for i, j in diagram}
    assert is_self_conjugate(parts) == (diagram == mirrored)
