"""CSV datasets over a range of n: axial parameters, maximizer locations,
shell distributions, and a run manifest with file checksums.

Output is deterministic: fields are plain integers, "--" markers, or
ratios rounded half-up to 4 decimals; rows are ordered by construction,
so two runs over the same range produce byte-identical CSV bodies.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

from . import __version__
from .axial import central_region
from .invariants import INVARIANTS
from .partitions import check_range
from .pipeline import GraphAnalysis, analyze

UNDEFINED = "--"

BASIC_AXIAL_HEADER = "n,p_n,axial,a_n,sigma_n,c1_n,a_over_p,sigma_over_p,c1_over_p"
EXTREMAL_HEADER = "n,invariant,max,argmax_size,argmax_axis_count,rho_ax,rho_sp"
SHELLS_HEADER = "n,kind,k,count"

GOLDEN_RANGE_MAX = 30


def ratio_4dp(numerator: int, denominator: int) -> str:
    """numerator/denominator rounded half-up to exactly 4 decimals.

    Integer arithmetic only, so ties round predictably (e.g. 1/20000
    gives "0.0001", not "0.0000").
    """
    q = (2 * numerator * 10_000 + denominator) // (2 * denominator)
    return f"{q // 10_000}.{q % 10_000:04d}"


@dataclass(frozen=True)
class RangeSummary:
    """One n's rows of the three CSV reports, and the seconds it took.

    ``extremal`` holds one row per invariant, in INVARIANTS order;
    ``shells`` holds none for axisless n, whose shells are empty.
    """

    n: int
    basic_axial: str
    extremal: tuple[str, ...]
    shells: tuple[str, ...]
    seconds: float


def summarize(analysis: GraphAnalysis) -> RangeSummary:
    n, p, geom = analysis.n, analysis.graph.num_vertices, analysis.geometry
    # Cells that need an axis read UNDEFINED for axisless n.
    axial = str if geom.is_axial else lambda cell: UNDEFINED
    a, sigma, c1 = len(geom.axis), len(geom.spine), len(central_region(geom, 1))
    basic_axial = ",".join(
        [
            str(n), str(p), "yes" if geom.is_axial else "no", str(a), axial(sigma), axial(c1),
            ratio_4dp(a, p), axial(ratio_4dp(sigma, p)), axial(ratio_4dp(c1, p)),
        ]
    )
    extremal = []
    for inv in INVARIANTS:
        prof = analysis.profiles[inv]
        hits, size = len(prof.argmax & geom.axis), len(prof.argmax)
        extremal.append(
            f"{n},{inv},{prof.max_value},{size},{axial(hits)},{axial(prof.rho_ax)},{axial(prof.rho_sp)}"
        )
    shells = tuple(
        f"{n},{kind},{k},{count}"
        for kind, counts in (("ax", geom.ax_shells), ("sp", geom.sp_shells))
        for k, count in enumerate(counts)
    )
    return RangeSummary(n, basic_axial, tuple(extremal), shells, seconds=0.0)


def _timed_summary(n: int) -> RangeSummary:
    start = time.perf_counter()
    summary = summarize(analyze(n))
    return replace(summary, seconds=time.perf_counter() - start)


def compute_summaries(n_min: int, n_max: int, threads: int = 1) -> list[RangeSummary]:
    """Per-n summaries in ascending n, optionally on a process pool.

    The pool gets the largest (slowest) n first, so the last job to start
    is a short one. It has no more workers than the range has n, since a
    forked pool starts every worker up front; one worker runs in process.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    ns = range(n_min, n_max + 1)
    workers = min(threads, len(ns))
    if workers > 1:
        # Imported here: it loads multiprocessing, socket and pickle, which
        # a one-worker run and every verify or export start would pay for.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {n: pool.submit(_timed_summary, n) for n in reversed(ns)}
            return [futures[n].result() for n in ns]
    return [_timed_summary(n) for n in ns]


def render_basic_axial(summaries: list[RangeSummary]) -> str:
    return "\n".join([BASIC_AXIAL_HEADER, *(s.basic_axial for s in summaries)]) + "\n"


def render_extremal_location(summaries: list[RangeSummary]) -> str:
    # Grouped by invariant, ascending n inside each block.
    blocks = zip(*(s.extremal for s in summaries))
    return "\n".join([EXTREMAL_HEADER, *chain.from_iterable(blocks)]) + "\n"


def render_shells(summaries: list[RangeSummary]) -> str:
    return "\n".join([SHELLS_HEADER, *(row for s in summaries for row in s.shells)]) + "\n"


def _write_atomic(path: Path, data: bytes) -> None:
    """Write data to path through a temporary file in the same directory,
    so the path holds either its old bytes or all of the new ones."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _peak_rss_mib() -> float:
    """Largest resident set of this process or of any child it has
    waited for (pool workers), in MiB.

    Linux hands a process its launcher's ru_maxrss at exec, so there the
    process's own peak is read as VmHWM from /proc/self/status: exec
    starts a fresh address space, and VmHWM counts only that. Forked
    workers inherit no such figure."""
    status = Path("/proc/self/status")
    lines = status.read_text().splitlines() if status.exists() else []
    hwm = [int(line.split()[1]) for line in lines if line.startswith("VmHWM:")]
    own = hwm[0] if hwm else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    maxrss = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # ru_maxrss and VmHWM are in KiB on Linux; ru_maxrss is in bytes on macOS.
    return round(maxrss / (1024 * 1024 if sys.platform == "darwin" else 1024), 3)


def run_range(n_min: int, n_max: int, out_dir: Path, threads: int = 1) -> list[Path]:
    """Emit basic_axial.csv, extremal_location.csv, shells.csv and
    manifest.json under out_dir; returns the written paths.

    Each file replaces its predecessor atomically and the manifest comes
    last, so a killed run never leaves a half-written file. A kill
    between two replacements can leave new CSVs beside the old manifest;
    its checksums then show which files are not the ones it lists.
    """
    check_range(n_min, n_max)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = compute_summaries(n_min, n_max, threads=threads)

    contents = {
        "basic_axial.csv": render_basic_axial(summaries).encode(),
        "extremal_location.csv": render_extremal_location(summaries).encode(),
        "shells.csv": render_shells(summaries).encode(),
    }
    for name, data in contents.items():
        _write_atomic(out_dir / name, data)

    # Imported here: hashlib loads OpenSSL, and neither it nor datetime
    # serves verify or export.
    import hashlib
    from datetime import datetime, timezone

    manifest = {
        "n_min": n_min,
        "n_max": n_max,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "per_n_seconds": {str(s.n): round(s.seconds, 6) for s in summaries},
        "peak_rss_mib": _peak_rss_mib(),
        "files": {name: "sha256:" + hashlib.sha256(data).hexdigest() for name, data in contents.items()},
    }
    manifest_path = out_dir / "manifest.json"
    _write_atomic(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return [out_dir / name for name in contents] + [manifest_path]
