"""One benchmark job, run by run.py in a fresh process.

Usage: child.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Writes DIR/child.json with monotonic timestamps (CLOCK_MONOTONIC is
system-wide on Linux, so the parent can subtract its spawn time):
`ready` once partition_axis is imported and arguments are parsed,
`start`/`done` around the job. A CLI job's stdout goes wherever the
parent pointed it; a library job's results go into child.json. With
--trace the spans are written to DIR/trace.json after the job.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def run_geometry(pa, ns: list[int]) -> dict[str, dict]:
    results = {}
    for n in ns:
        g = pa.build_graph(n)
        geo = pa.axial_geometry(g)
        results[str(n)] = {
            "p": g.num_vertices,
            "axis": len(geo.axis),
            "sigma": len(geo.spine),
            "c1": len(pa.central_region(geo, 1)),
            "ax_shells": list(geo.ax_shells),
            "sp_shells": list(geo.sp_shells),
        }
        del g, geo
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    entry = importlib.import_module("partition_axis" if workload.kind == "geometry" else "partition_axis.cli")
    ready = time.monotonic()
    record = {"ready": ready, "module": entry.__file__}
    if args.setup_only:
        (args.out / "child.json").write_text(json.dumps(record))
        return 0

    tracer = None
    root = contextlib.nullcontext()
    if args.trace:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        root = tracer.span(ROOT_SPAN)
    order = workload.order(args.seed)
    argv = workload.cli_argv(str(args.out / "out"))

    record["start"] = time.monotonic()
    with root:
        if workload.kind == "geometry":
            record["results"] = run_geometry(entry, order)
            record["rc"] = 0
        else:
            record["rc"] = entry.main(argv)
            sys.stdout.flush()
    record["done"] = time.monotonic()

    (args.out / "child.json").write_text(json.dumps(record))
    if tracer:
        (args.out / "trace.json").write_text(json.dumps(tracer.document()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
