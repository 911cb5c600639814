"""Integer partitions in canonical nonincreasing form.

A partition is represented as a ``bytes`` object holding one byte per
part, largest part first, e.g. ``b"\\x03\\x02\\x01"`` for 3+2+1. Its parts
still iterate and index as ints, and bytes compare, hash and order in C:
reverse-lexicographic order is descending byte order. A bytes vertex
costs about a third of a tuple of ints and is not tracked by the cyclic
garbage collector. One byte per part bounds n at MAX_N.
"""

from __future__ import annotations

from collections.abc import Sequence

Partition = bytes

MAX_N = 255


def enumerate_partitions(n: int) -> list[Partition]:
    """All p(n) partitions of n in reverse-lexicographic order (largest
    part first), starting at ``(n,)`` and ending at ``(1,)*n``.

    Each partition follows from the previous one: strip the trailing 1s,
    decrement the last remaining part to k, and refill the freed total
    greedily with parts of size at most k.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N} (one byte per part), got {n}")
    parts = [n]
    found = [bytes(parts)]
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
        found.append(bytes(parts))
    return found


def conjugate(parts: Sequence[int]) -> Partition:
    """Transpose of the Ferrers diagram: column j of the result counts
    the parts of size >= j. ``parts`` may be any nonincreasing sequence
    of positive ints.

    Rows are read from the bottom up: row k adds one column of height k
    for each cell by which it is longer than row k+1.
    """
    columns: list[int] = []
    for k in range(len(parts), 0, -1):
        columns += [k] * (parts[k - 1] - len(columns))
    return bytes(columns)


def format_partition(parts: Partition) -> str:
    """Textual form used in exports: comma-separated parts, e.g. "3,2,1"."""
    return ",".join(str(p) for p in parts)
