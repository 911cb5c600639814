"""Integer partitions in canonical nonincreasing form.

A partition is represented as a tuple of positive parts sorted largest
first, e.g. ``(3, 2, 1)``. Tuples give canonical equality and hashing for
free, so partitions can be used directly as dict keys and set members.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]

REMOVABLE = "removable"
ADDABLE = "addable"


class Corner(NamedTuple):
    """A removable or addable cell of a Ferrers diagram, 1-indexed."""

    row: int
    col: int
    kind: str
    diagonal: bool


def validate_partition(parts: Partition) -> None:
    """Raise ValueError unless ``parts`` is a nonempty nonincreasing
    sequence of positive integers."""
    if not parts:
        raise ValueError("partition must have at least one part")
    for i, p in enumerate(parts):
        if p < 1:
            raise ValueError(f"parts must be positive, got {p}")
        if i and parts[i - 1] < p:
            raise ValueError(f"parts must be nonincreasing, got {parts}")


def enumerate_partitions(n: int) -> list[Partition]:
    """All p(n) partitions of n in reverse-lexicographic order (largest
    part first), starting at ``(n,)`` and ending at ``(1,)*n``."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for k in range(min(cap, remaining), 0, -1):
            prefix.append(k)
            yield from rec(remaining - k, k, prefix)
            prefix.pop()

    return list(rec(n, n, []))


def conjugate(parts: Partition) -> Partition:
    """Transpose of the Ferrers diagram: column j of the result counts
    the parts of size >= j."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def is_self_conjugate(parts: Partition) -> bool:
    return parts == conjugate(parts)


def corners(parts: Partition) -> list[Corner]:
    """All removable and addable corners, removables first, by row.

    A cell (i, parts[i]) is removable when deleting it leaves a valid
    diagram, i.e. parts[i] > parts[i+1] (with a trailing 0). A cell
    (i, parts[i]+1) is addable when parts[i-1] > parts[i] (row 0 acting
    as infinitely long), including the fresh row below the diagram.
    """
    validate_partition(parts)
    ell = len(parts)
    found = []
    for i in range(1, ell + 1):
        below = parts[i] if i < ell else 0
        if parts[i - 1] > below:
            col = parts[i - 1]
            found.append(Corner(i, col, REMOVABLE, i == col))
    for i in range(1, ell + 2):
        here = parts[i - 1] if i <= ell else 0
        above = parts[i - 2] if i >= 2 else here + 1
        if above > here:
            col = here + 1
            found.append(Corner(i, col, ADDABLE, i == col))
    return found


def transfer_moves(parts: Partition) -> list[tuple[int, int]]:
    """Distinct (donor size, receiver size) pairs of unit transfers.

    Receiver 0 is a newly adjoined part. The outcome of a transfer
    depends only on the two sizes, so each pair is one neighbour. A
    transfer from size v onto size v-1 reproduces the input and is
    skipped; v onto v needs two parts of size v.
    """
    validate_partition(parts)
    mult = Counter(parts)
    values = sorted(mult)
    return [
        (v, w)
        for v in values
        for w in values + [0]
        if w != v - 1 and (w != v or mult[v] >= 2)
    ]


def transfer_neighbors(parts: Partition) -> set[Partition]:
    """Partitions reachable by moving one unit between two distinct parts.

    One part shrinks by 1 (vanishing if it was 1), a different part or a
    newly adjoined zero part grows by 1, and the result is resorted.
    """
    out: set[Partition] = set()
    for v, w in transfer_moves(parts):
        moved = list(parts)
        moved.remove(v)
        if w:
            moved.remove(w)
        if v > 1:
            moved.append(v - 1)
        moved.append(w + 1)
        moved.sort(reverse=True)
        out.add(tuple(moved))
    return out


def format_partition(parts: Partition) -> str:
    """Textual form used in exports: comma-separated parts, e.g. "3,2,1"."""
    return ",".join(str(p) for p in parts)
