"""Integer partitions in canonical nonincreasing form.

A partition is represented as a tuple of positive parts sorted largest
first, e.g. ``(3, 2, 1)``. Tuples give canonical equality and hashing for
free, so partitions can be used directly as dict keys and set members.
"""

from __future__ import annotations

from typing import NamedTuple

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
    part first), starting at ``(n,)`` and ending at ``(1,)*n``.

    Each partition follows from the previous one: strip the trailing 1s,
    decrement the last remaining part to k, and refill the freed total
    greedily with parts of size at most k.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    parts = [n]
    found = [(n,)]
    while parts[0] > 1:
        freed = 0
        while parts[-1] == 1:
            parts.pop()
            freed += 1
        k = parts.pop() - 1
        q, r = divmod(freed + k + 1, k)
        parts += [k] * q
        if r:
            parts.append(r)
        found.append(tuple(parts))
    return found


def conjugate(parts: Partition) -> Partition:
    """Transpose of the Ferrers diagram: column j of the result counts
    the parts of size >= j.

    Rows are read from the bottom up: row k adds one column of height k
    for each cell by which it is longer than row k+1.
    """
    columns: list[int] = []
    for k in range(len(parts), 0, -1):
        columns += [k] * (parts[k - 1] - len(columns))
    return tuple(columns)


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


def transfer_neighbors(parts: Partition) -> set[Partition]:
    """Partitions reachable by moving one unit between two distinct parts.

    One part shrinks by 1 (vanishing if it was 1) and a different part or
    a newly adjoined zero part grows by 1. Each neighbour is one copy of
    the parts with two entries edited in place; no resorting is needed.

    The outcome of a transfer depends only on the donor size v and the
    receiver size w (0 for a new part, at index len(parts)), so each pair
    is one neighbour. A transfer from v onto v-1 reproduces the input and
    is skipped; v onto v needs two parts of size v. The donor is the last
    part of its size (index i) and the receiver the first of its (index
    j), so decrementing the one and incrementing the other keeps the
    parts nonincreasing.
    """
    validate_partition(parts)
    ell = len(parts)
    runs = []  # (size, first index, last index), largest size first
    first = 0
    for k in range(1, ell + 1):
        if k == ell or parts[k] != parts[first]:
            runs.append((parts[first], first, k - 1))
            first = k
    receivers = runs + [(0, ell, ell)]
    out: set[Partition] = set()
    for v, _, i in runs:
        for w, j, w_last in receivers:
            if w == v - 1 or (w == v and j == w_last):
                continue
            if w:
                moved = list(parts)
                moved[j] = w + 1
            else:
                moved = [*parts, 1]
            if v > 1:
                moved[i] = v - 1
            else:
                moved.pop()  # a donor of size 1 is the last part
            out.add(tuple(moved))
    return out


def format_partition(parts: Partition) -> str:
    """Textual form used in exports: comma-separated parts, e.g. "3,2,1"."""
    return ",".join(str(p) for p in parts)
