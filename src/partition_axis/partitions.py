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

# _PART[v] is the one-part partition (v), and _PART[0] is empty.
_PART = [bytes((v,)) if v else b"" for v in range(MAX_N + 1)]


def check_range(n_min: int, n_max: int) -> None:
    """Reject a range of n that is empty, starts below 1 or ends past MAX_N."""
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"invalid range {n_min}..{n_max}")
    if n_max > MAX_N:
        raise ValueError(f"n must be at most {MAX_N} (one byte per part), got {n_max}")


def enumerate_partitions(n: int) -> list[Partition]:
    """All p(n) partitions of n in reverse-lexicographic order (largest
    part first), starting at ``(n,)`` and ending at ``(1,)*n``.

    Each partition follows from the previous one: strip the trailing 1s,
    decrement the last remaining part to k, and refill the freed total
    greedily with parts of size at most k. The 1s are found, and the
    refill is written, by bytes operations.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N} (one byte per part), got {n}")
    parts = _PART[n]
    found = [parts]
    while parts[0] > 1:
        ones = parts.find(1)
        if ones < 0:
            ones = len(parts)
        k = parts[ones - 1] - 1
        q, r = divmod(len(parts) - ones + k + 1, k)
        parts = parts[: ones - 1] + _PART[k] * q + _PART[r]
        found.append(parts)
    return found


def conjugate(parts: Sequence[int]) -> Partition:
    """Transpose of the Ferrers diagram: column j of the result counts
    the parts of size >= j. ``parts`` may be any nonincreasing sequence
    of positive ints.

    Rows are read from the bottom up, one run of equal parts at a time:
    a run ending at row k, longer by some number of cells than the rows
    below it, adds that many columns of height k.
    """
    blocks = []
    below = 0
    for k in range(len(parts), 0, -1):
        size = parts[k - 1]
        if size != below:
            blocks.append(_PART[k] * (size - below))
            below = size
    return b"".join(blocks)


def format_partition(parts: Partition) -> str:
    """Textual form used in exports: comma-separated parts, e.g. "3,2,1"."""
    return ",".join(str(p) for p in parts)
