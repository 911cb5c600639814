"""Integer partitions in canonical nonincreasing form.

A partition is represented as a tuple of positive parts sorted largest
first, e.g. ``(3, 2, 1)``. Tuples give canonical equality and hashing for
free, so partitions can be used directly as dict keys and set members.
"""

from __future__ import annotations

Partition = tuple[int, ...]


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


def format_partition(parts: Partition) -> str:
    """Textual form used in exports: comma-separated parts, e.g. "3,2,1"."""
    return ",".join(str(p) for p in parts)
