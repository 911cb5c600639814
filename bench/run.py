"""partition-axis benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its `src/`, nothing is installed. Workloads and why each exists are in
workloads.py.

A run repeats one workload's batch job, each time in a fresh child
process (child.py), for about S seconds: a new job starts only if the
last one's duration still fits. After each job its outputs are checked
(oracles.py); every check attempted and failed is counted.

--trace 0 reports the end-to-end metrics, medians over the run's jobs:
  wall_s          the job: cli.main, or the library loop, until outputs are written
  setup_s         spawning the child until partition_axis is imported and
                  arguments are parsed; also sampled by import-only children
                  started before each job
  cpu_s           user + system time of the child and its pool workers
  peak_rss_mb     largest resident set of the child or any pool worker
  vertices_per_s  sum of p(n) over the workload's n, divided by wall_s
wall_s comes from the child's clock; cpu_s and peak_rss_mb from os.wait4
on that one child, so one job's peak never carries into the next.

--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics of tracer.py (medians over traced jobs), plus
  report.pool_util     cpu_s / (workers * wall_s) of the untraced jobs
  trace.overhead_frac  traced wall_s / untraced wall_s - 1
A traced run fails if a wrapped function is gone, if a layer the
workload declares records no call, or if a layer it does not declare
records one (so geometry-deep asserts invariants.omega_calls == 0).

The last stdout line is the JSON result. Exit status: 0 if every check
passed, 1 if some failed, 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from oracles import Outcome, check_geometry, check_report, check_verify, partition_count
from tracer import layer_metrics
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"

PROBES_PER_JOB = 3
RUN_LIMIT_S = 170.0
LAYERS = ("partitions", "graph", "axial", "invariants", "pipeline", "report", "checks")


class BenchError(RuntimeError):
    pass


@dataclass
class Job:
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    checks: Outcome
    trace: dict | None


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(workload: Workload, seed: int, job_dir: Path, flags: list[str], deadline: float):
    """Run child.py once; return its record and os.wait4 resource usage."""
    job_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--out", str(job_dir), *flags]
    spawned = time.monotonic()
    with open(job_dir / "stdout.txt", "wb") as out, open(job_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err,
                                start_new_session=True)
    # On timeout, kill the child's whole process group: its pool workers too.
    watchdog = threading.Timer(max(deadline - spawned, 1.0), kill_group, (proc.pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (job_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"{workload.name} job exited with {proc.returncode}:\n{tail}")
    record = json.loads((job_dir / "child.json").read_text())
    if not Path(record["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"child imported partition_axis from {record['module']}, not {SRC}")
    record["setup_s"] = record["ready"] - spawned
    return record, usage


def run_job(workload: Workload, seed: int, job_dir: Path, traced: bool, deadline: float) -> Job:
    record, usage = spawn(workload, seed, job_dir, ["--trace"] if traced else [], deadline)
    if workload.kind == "report":
        checks = check_report(job_dir / "out", record["rc"], GOLDEN)
    elif workload.kind == "verify":
        checks = check_verify((job_dir / "stdout.txt").read_text(), record["rc"])
    else:
        checks = check_geometry(record["results"], workload.ns)
    trace = json.loads((job_dir / "trace.json").read_text()) if traced else None
    shutil.rmtree(job_dir)
    return Job(
        setup_s=record["setup_s"],
        wall_s=record["done"] - record["start"],
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        checks=checks,
        trace=trace,
    )


def setup_probe(workload: Workload, seed: int, job_dir: Path, deadline: float) -> float:
    record, _ = spawn(workload, seed, job_dir, ["--setup-only"], deadline)
    shutil.rmtree(job_dir)
    return record["setup_s"]


def run_jobs(workload: Workload, seed: int, seconds: int, trace: bool, run_dir: Path):
    started = time.monotonic()
    stop_at = started + seconds
    deadline = started + RUN_LIMIT_S
    # Import-only children sample setup_s between jobs, so the samples span
    # the run as the host's speed drifts. The first one fills the bytecode
    # cache and is not counted.
    setup_probe(workload, seed, run_dir / "warmup", deadline)
    probes: list[float] = []
    jobs: list[Job] = []
    last = 0.0
    while True:
        now = time.monotonic()
        kinds = {job.trace is not None for job in jobs}
        complete = kinds == {False, True} if trace else bool(jobs)
        if complete and now + last > stop_at:
            break
        if not trace:
            probes += [setup_probe(workload, seed, run_dir / f"probe{len(jobs)}.{i}", deadline)
                       for i in range(PROBES_PER_JOB)]
        traced = trace and len(jobs) % 2 == 1
        jobs.append(run_job(workload, seed, run_dir / f"job{len(jobs)}", traced, deadline))
        last = time.monotonic() - now
    return probes, jobs


def end_to_end(workload: Workload, probes: list[float], jobs: list[Job]) -> dict:
    vertices = sum(partition_count(n) for n in workload.ns)
    return {
        "wall_s": (median(j.wall_s for j in jobs), "s"),
        "setup_s": (median(probes + [j.setup_s for j in jobs]), "s"),
        "cpu_s": (median(j.cpu_s for j in jobs), "s"),
        "peak_rss_mb": (median(j.peak_rss_mb for j in jobs), "MiB"),
        "vertices_per_s": (median(vertices / j.wall_s for j in jobs), "1/s"),
    }


def per_layer(workload: Workload, untraced: list[Job], traced: list[Job]) -> dict:
    per_job = []
    for job in traced:
        metrics, calls = layer_metrics(job.trace)
        for layer in LAYERS:
            n_calls = sum(c for name, c in calls.items() if name.startswith(layer + "."))
            declared = layer in workload.layers
            if declared and n_calls == 0:
                raise BenchError(f"{workload.name}: layer {layer} recorded no calls")
            if not declared and n_calls:
                raise BenchError(f"{workload.name}: undeclared layer {layer} recorded {n_calls} calls")
        per_job.append(metrics)
    out = {}
    for name in per_job[0]:
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("bytes_written") else "count"
        out[name] = (median(m[name] for m in per_job), unit)
    out["report.pool_util"] = (
        median(j.cpu_s / (workload.workers * j.wall_s) for j in untraced), "ratio")
    out["trace.overhead_frac"] = (
        median(j.wall_s for j in traced) / median(j.wall_s for j in untraced) - 1, "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "partition_axis" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"bench: error: {ROOT} is not a partition-axis source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        probes, jobs = run_jobs(workload, args.seed, args.seconds, bool(args.trace), run_dir)
        untraced = [j for j in jobs if j.trace is None]
        traced = [j for j in jobs if j.trace is not None]
        if args.trace:
            metrics = per_layer(workload, untraced, traced)
        else:
            metrics = end_to_end(workload, probes, untraced)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()  # only if no other run is using it
        except OSError:
            pass

    checks = [c for job in jobs for c in job.checks]
    failed = [name for name, ok in checks if not ok]

    print(f"workload {workload.name}  seed {args.seed}  order {workload.order(args.seed)}")
    print(f"jobs {len(untraced)} untraced, {len(traced)} traced; setup samples {len(probes) + len(untraced)}")
    print("wall_s per job: " + " ".join(f"{j.wall_s:.3f}" for j in jobs))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {len(failed) / len(checks):.6g} ({len(failed)} of {len(checks)} checks)")
    for name in failed[:20]:
        print(f"  FAILED CHECK: {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
