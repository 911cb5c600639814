"""The benchmark's workloads: what each job runs and which layers it must reach.

Each workload is one closed-loop batch job, run in a fresh child process
so that `pipeline.analyze`'s cache starts cold every time.

Why these four:

- report-golden: the paper-table job (`report`, n = 1..30, one worker).
  The clique search dominates it; its CSVs have golden bytes. It is the
  single-threaded baseline the others are read against.
- geometry-deep: library build_graph -> axial_geometry -> central_region
  for n = 35..40, graph dropped after each n, order shuffled by the seed.
  Graph build is almost all of it and the clique search does no work, so
  it shows graph-layer changes and is the control for clique changes.
- verify-range: `verify`, n = 1..30. The only workload where the checks
  layer runs; it re-reads the same cached analyses many times.
- report-parallel: report-golden's job on min(2, nproc) pool workers. The
  only workload that uses the report process pool. It is not listed in
  BENCHMARK.json: on a shared 2-core host its wall time moved by 40%
  (interquartile range over median, five runs) as the second core came
  and went, more than any bound the benchmark may set. Run it by name to
  look at pool scheduling.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

GEOMETRY_DEEP_NS = tuple(range(35, 41))
REPORT_NS = tuple(range(1, 31))
VERIFY_LINES = 630  # 21 checks x 30 values of n


def pool_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "report", "verify" or "geometry"
    ns: tuple[int, ...]
    workers: int
    # Span-name prefixes a traced job must record calls for. A pool
    # worker's spans die with it, so report-parallel declares only the
    # parent-side report layer.
    layers: tuple[str, ...]

    def cli_argv(self, out_dir: str) -> list[str]:
        lo, hi = str(min(self.ns)), str(max(self.ns))
        if self.kind == "report":
            return ["report", "--n-min", lo, "--n-max", hi,
                    "--threads", str(self.workers), "--out-dir", out_dir]
        return ["verify", "--n-min", lo, "--n-max", hi]

    def order(self, seed: int) -> list[int]:
        """The n values in the order a job visits them; only the library
        workload is shuffled, the CLI ones are fixed by their range."""
        ns = list(self.ns)
        if self.kind == "geometry":
            random.Random(seed).shuffle(ns)
        return ns


_ANALYSIS = ("partitions", "graph", "axial", "invariants", "pipeline")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-golden", "report", REPORT_NS, 1, _ANALYSIS + ("report",)),
        Workload("geometry-deep", "geometry", GEOMETRY_DEEP_NS, 1, ("partitions", "graph", "axial")),
        Workload("verify-range", "verify", REPORT_NS, 1, _ANALYSIS + ("checks",)),
        Workload("report-parallel", "report", REPORT_NS, pool_workers(), ("report",)),
    )
}
