from hypothesis import given, settings
from hypothesis import strategies as st

from partition_axis import conjugate

from oracles import (
    cells,
    conjugate_by_transposition,
    has_both_diagonal_corner_kinds,
    is_downward_closed,
    naive_transfer_neighbors,
    transfer_moves,
    transfer_neighbors,
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
    assert tuple(conjugate(conjugate(parts))) == parts


@given(partitions())
def test_conjugate_preserves_total(parts):
    assert sum(conjugate(parts)) == sum(parts)


@given(partitions())
def test_conjugate_matches_transposition_oracle(parts):
    assert tuple(conjugate(parts)) == conjugate_by_transposition(parts)


@given(partitions(max_n=20))
def test_transfers_land_on_valid_partitions(parts):
    n = sum(parts)
    for other in transfer_neighbors(parts):
        assert min(other) >= 1 and is_downward_closed(cells(other))
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
    image = {tuple(conjugate(m)) for m in transfer_neighbors(parts)}
    assert image == transfer_neighbors(tuple(conjugate(parts)))


@given(partitions())
def test_diagonal_corner_kinds_are_exclusive(parts):
    assert not has_both_diagonal_corner_kinds(parts)
