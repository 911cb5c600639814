"""CSV datasets over a range of n: axial parameters, maximizer locations,
shell distributions, and a run manifest with file checksums.

Output is deterministic: fields are plain integers, "--" markers, or
ratios rounded half-up to 4 decimals; rows are ordered by construction,
so two runs over the same range produce byte-identical CSV bodies.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
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
    """Everything the CSV reports need for one n, as plain values."""

    n: int
    p: int
    axial: bool
    a: int
    sigma: int
    c1: int
    extremal: dict[str, tuple[int, int, int, int | None, int | None]]
    ax_shells: tuple[int, ...]
    sp_shells: tuple[int, ...]
    seconds: float


def summarize(analysis: GraphAnalysis) -> RangeSummary:
    geom = analysis.geometry
    extremal = {}
    for inv in INVARIANTS:
        prof = analysis.profiles[inv]
        axis_hits = len(prof.argmax & geom.axis)
        extremal[inv] = (prof.max_value, len(prof.argmax), axis_hits, prof.rho_ax, prof.rho_sp)
    return RangeSummary(
        n=analysis.n,
        p=analysis.graph.num_vertices,
        axial=geom.is_axial,
        a=len(geom.axis),
        sigma=len(geom.spine),
        c1=len(central_region(geom, 1)),
        extremal=extremal,
        ax_shells=geom.ax_shells,
        sp_shells=geom.sp_shells,
        seconds=0.0,
    )


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


def basic_axial_row(s: RangeSummary) -> str:
    if s.axial:
        return ",".join(
            [
                str(s.n), str(s.p), "yes", str(s.a), str(s.sigma), str(s.c1),
                ratio_4dp(s.a, s.p), ratio_4dp(s.sigma, s.p), ratio_4dp(s.c1, s.p),
            ]
        )
    return ",".join(
        [str(s.n), str(s.p), "no", str(s.a), UNDEFINED, UNDEFINED,
         ratio_4dp(s.a, s.p), UNDEFINED, UNDEFINED]
    )


def extremal_row(s: RangeSummary, invariant_id: str) -> str:
    max_value, argmax_size, axis_hits, rho_ax, rho_sp = s.extremal[invariant_id]
    tail = (
        [str(axis_hits), str(rho_ax), str(rho_sp)]
        if s.axial
        else [UNDEFINED, UNDEFINED, UNDEFINED]
    )
    return ",".join([str(s.n), invariant_id, str(max_value), str(argmax_size)] + tail)


def render_basic_axial(summaries: list[RangeSummary]) -> str:
    lines = [BASIC_AXIAL_HEADER] + [basic_axial_row(s) for s in summaries]
    return "\n".join(lines) + "\n"


def render_extremal_location(summaries: list[RangeSummary]) -> str:
    # Grouped by invariant, ascending n inside each block.
    lines = [EXTREMAL_HEADER]
    for inv in INVARIANTS:
        lines += [extremal_row(s, inv) for s in summaries]
    return "\n".join(lines) + "\n"


def render_shells(summaries: list[RangeSummary]) -> str:
    # Axisless n contribute no rows: their shells are empty.
    lines = [SHELLS_HEADER]
    for s in summaries:
        for kind, shells in (("ax", s.ax_shells), ("sp", s.sp_shells)):
            lines += [f"{s.n},{kind},{k},{count}" for k, count in enumerate(shells)]
    return "\n".join(lines) + "\n"


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


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
    waited for (pool workers), in MiB."""
    maxrss = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
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

    manifest = {
        "n_min": n_min,
        "n_max": n_max,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "per_n_seconds": {str(s.n): round(s.seconds, 6) for s in summaries},
        "peak_rss_mib": _peak_rss_mib(),
        "files": {name: _sha256(data) for name, data in contents.items()},
    }
    manifest_path = out_dir / "manifest.json"
    _write_atomic(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return [out_dir / name for name in contents] + [manifest_path]
