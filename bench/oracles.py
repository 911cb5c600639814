"""Output checks for each workload, independent of partition_axis's code.

Each oracle returns a list of (check, ok) pairs; every pair counts as one
attempted check and every False as one failure. The report references
do not depend on the thread count, so report-golden and report-parallel
passing together means both thread counts wrote identical CSV bodies.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from workloads import VERIFY_LINES

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

Outcome = list[tuple[str, bool]]


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, k = 0, 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 else -1
        total += sign * partition_count(n - k * (3 * k - 1) // 2)
        total += sign * partition_count(n - k * (3 * k + 1) // 2)
        k += 1
    return total


def distinct_odd_part_count(n: int) -> int:
    """Partitions of n into distinct odd parts, which are equinumerous with
    self-conjugate partitions (fold each diagonal hook into one odd part)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for total in range(n, part - 1, -1):
            ways[total] += ways[total - part]
    return ways[n]


def check_report(out_dir: Path, rc: int, golden_dir: Path) -> Outcome:
    def read(path: Path) -> bytes | None:
        return path.read_bytes() if path.is_file() else None

    shells = read(out_dir / "shells.csv")
    return [
        ("exit status 0", rc == 0),
        *(
            (f"{name} equals tests/golden", read(out_dir / name) == (golden_dir / name).read_bytes())
            for name in ("basic_axial.csv", "extremal_location.csv")
        ),
        ("shells.csv sha256", shells is not None
         and hashlib.sha256(shells).hexdigest() == REFERENCE["shells_csv_sha256"]),
    ]


def check_geometry(results: dict[str, dict], ns: tuple[int, ...]) -> Outcome:
    outcome = []
    for n in ns:
        got = results.get(str(n), {})
        want = REFERENCE["geometry"][str(n)]
        outcome.append((f"n={n} p(n)", got.get("p") == partition_count(n)))
        outcome.append((f"n={n} axis size", got.get("axis") == distinct_odd_part_count(n)))
        outcome += [(f"n={n} {key}", got.get(key) == want[key]) for key in want]
    return outcome


def check_verify(stdout: str, rc: int) -> Outcome:
    lines = stdout.splitlines()
    results = [line for line in lines if line.startswith("n=")]
    return [
        ("exit status 0", rc == 0),
        (f"{VERIFY_LINES} result lines", len(results) == VERIFY_LINES),
        *((line, ": FAIL" not in line) for line in results),
    ]
