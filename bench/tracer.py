"""Spans around partition_axis's layer entry points, for traced benchmark jobs.

The program is not changed. A traced job replaces, before it starts,
the attribute each *calling* module looks the layer function up by
(e.g. `pipeline.build_graph`, `axial.bfs_distances`, `report.analyze`)
with a wrapper that records a span: name, parent span, start, end.
Spans stay in memory and are written once, when the job ends; the
parent turns them into per-layer self times with `layer_metrics`.

Work counters (edges, axis sizes, ...) are computed after a span closes,
inside a `bench.count` span. Its time is subtracted from every enclosing
span, so counting never shows up as layer time.

Spans recorded in forked pool workers die with the worker; for a
parallel `report` only the parent-side spans survive.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from pathlib import Path

BOOKKEEPING = "bench.count"
ROOT_SPAN = "run"

CHECK_NAMES = (
    "partition_count", "adjacency_symmetric_irreflexive", "conjugation_involution",
    "conjugation_automorphism", "degree_sum", "diagonal_corner_exclusivity",
    "bfs_triangle", "axis_edgeless", "mediator_distance_one", "spine_sandwich",
    "spine_conj_invariant", "spine_membership", "filtration_sandwich", "shell_sums",
    "distance_conj_invariant", "radius_comparison", "argmax_symmetry",
    "omega_deg_bounds", "dim_shift", "radius_bounds", "clique_oracle",
)


class TraceTargetMissing(RuntimeError):
    """A function the tracer is meant to wrap no longer exists."""


def _count_vertices(counts: Counter, parts, args) -> None:
    counts["partitions.vertices"] += len(parts)


def _count_graph(counts: Counter, g, args) -> None:
    counts["graph.edges"] += g.num_edges
    counts["graph.max_deg"] = max(counts["graph.max_deg"], max(map(len, g.adjacency)))


def _count_geometry(counts: Counter, geo, args) -> None:
    counts["axial.axis_vertices"] += len(geo.axis)
    counts["axial.spine_vertices"] += len(geo.spine) if geo.spine is not None else 0
    counts["axial.mediator_pairs"] += len(geo.mediators)


def _count_nbhd_edges(counts: Counter, profiles, args) -> None:
    # Edges inside N(v), summed over v: the clique search's input size.
    adjacency = args[0].adjacency
    neighbor_sets = [set(row) for row in adjacency]
    twice = sum(len(neighbor_sets[u] & nbhd) for nbhd in neighbor_sets for u in nbhd)
    counts["invariants.nbhd_edges"] += twice // 2


def _count_bytes(counts: Counter, paths, args) -> None:
    counts["report.bytes_written"] += sum(Path(p).stat().st_size for p in paths)


def _count_results(counts: Counter, results, args) -> None:
    counts["checks.results"] += len(results)
    counts["checks.skipped"] += sum(1 for r in results if r.status.startswith("skipped"))


# (module, attribute, span name, counter). The span name is the layer
# metric its self time adds to. `partition_axis` itself is listed for the
# names the library workload calls through the package.
WRAPS = (
    ("partition_axis.graph", "enumerate_partitions", "partitions.enumerate", _count_vertices),
    ("partition_axis.pipeline", "build_graph", "graph.build", _count_graph),
    ("partition_axis", "build_graph", "graph.build", _count_graph),
    ("partition_axis.axial", "bfs_distances", "graph.bfs", None),
    ("partition_axis.checks", "bfs_distances", "graph.bfs", None),
    ("partition_axis.pipeline", "axial_geometry", "axial.geometry", _count_geometry),
    ("partition_axis", "axial_geometry", "axial.geometry", _count_geometry),
    ("partition_axis", "central_region", "axial.geometry", None),
    ("partition_axis.report", "central_region", "axial.geometry", None),
    ("partition_axis.checks", "central_region", "axial.geometry", None),
    ("partition_axis.checks", "thick_spine", "axial.geometry", None),
    ("partition_axis.invariants", "local_clique_number", "invariants.omega", None),
    ("partition_axis.checks", "local_clique_number", "invariants.omega", None),
    ("partition_axis.pipeline", "all_profiles", "invariants.profiles", _count_nbhd_edges),
    ("partition_axis.report", "analyze", "pipeline.analyze", None),
    ("partition_axis.checks", "analyze", "pipeline.analyze", None),
    ("partition_axis.report", "compute_summaries", "report.pool_wait", None),
    ("partition_axis.report", "summarize", "report.summarize", None),
    ("partition_axis.report", "render_basic_axial", "report.render", None),
    ("partition_axis.report", "render_extremal_location", "report.render", None),
    ("partition_axis.report", "render_shells", "report.render", None),
    ("partition_axis.cli", "run_range", "report.write", _count_bytes),
    ("partition_axis.cli", "verify_range", "checks.run", _count_results),
    ("partition_axis.checks", "run_checks", "checks.run", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span(BOOKKEEPING):
                    counter(self.counts, result, args)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry in WRAPS and every property check.

        Raises TraceTargetMissing if any target is gone, so a deletion
        cannot silently zero a layer.
        """
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TraceTargetMissing(f"{module_name}.{attr}")
            setattr(module, attr, self.wrap(name, fn, counter))
        checks = importlib.import_module("partition_axis.checks")
        table = getattr(checks, "_CHECKS", None)
        if table is None:
            raise TraceTargetMissing("partition_axis.checks._CHECKS")
        missing = set(CHECK_NAMES) - {entry[0] for entry in table}
        if missing:
            raise TraceTargetMissing(f"partition_axis.checks check(s) {sorted(missing)}")
        checks._CHECKS = [
            (name, self.wrap(f"checks.{name}", fn), *rest) for name, fn, *rest in table
        ]

    def document(self) -> dict:
        analyze = importlib.import_module("partition_axis.pipeline").analyze
        cache = analyze.cache_info() if hasattr(analyze, "cache_info") else None
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "cache": {"hits": cache.hits, "misses": cache.misses} if cache else None,
        }


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        stack = tracer._stack
        self.tracer = tracer
        self.record = [name, stack[-1] if stack else -1, 0.0, 0.0]

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[2] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[3] = time.perf_counter()
        self.tracer._stack.pop()


def layer_metrics(doc: dict) -> tuple[dict[str, float], Counter]:
    """Per-layer metrics of one traced job, and the call count per span name.

    A span's self time is its duration minus its direct children's. Times
    ending in `_s` are self times, except `pipeline.analyze_s`, which is
    the whole analysis call less counting inside it.
    """
    spans = doc["spans"]
    children = [0.0] * len(spans)
    counting = [0.0] * len(spans)  # bookkeeping time inside each subtree
    for i in range(len(spans) - 1, -1, -1):  # children come after parents
        name, parent, start, end = spans[i]
        if name == BOOKKEEPING:
            counting[i] += end - start
        if parent >= 0:
            children[parent] += end - start
            counting[parent] += counting[i]
    self_time: Counter = Counter()
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, _, start, end) in enumerate(spans):
        self_time[name] += end - start - children[i]
        inclusive[name] += end - start - counting[i]
        calls[name] += 1

    counts = doc["counts"]
    cache = doc["cache"]
    analyze_calls = calls["pipeline.analyze"]
    metrics = {
        "partitions.enumerate_s": self_time["partitions.enumerate"],
        "partitions.vertices": counts.get("partitions.vertices", 0),
        "graph.build_s": self_time["graph.build"],
        "graph.edges": counts.get("graph.edges", 0),
        "graph.max_deg": counts.get("graph.max_deg", 0),
        "graph.bfs_s": self_time["graph.bfs"],
        "graph.bfs_calls": calls["graph.bfs"],
        "axial.geometry_s": self_time["axial.geometry"],
        "axial.axis_vertices": counts.get("axial.axis_vertices", 0),
        "axial.spine_vertices": counts.get("axial.spine_vertices", 0),
        "axial.mediator_pairs": counts.get("axial.mediator_pairs", 0),
        "invariants.omega_s": self_time["invariants.omega"],
        "invariants.omega_calls": calls["invariants.omega"],
        "invariants.profiles_s": self_time["invariants.profiles"],
        "invariants.nbhd_edges": counts.get("invariants.nbhd_edges", 0),
        "pipeline.analyze_s": inclusive["pipeline.analyze"],
        # Without a cache every call is a miss.
        "pipeline.cache_hits": cache["hits"] if cache else 0,
        "pipeline.cache_misses": cache["misses"] if cache else analyze_calls,
        "report.summarize_s": self_time["report.summarize"],
        "report.render_s": self_time["report.render"],
        "report.write_s": self_time["report.write"],
        "report.bytes_written": counts.get("report.bytes_written", 0),
        "report.pool_wait_s": self_time["report.pool_wait"],
        "checks.run_s": sum(t for name, t in self_time.items() if name.startswith("checks.")),
        "checks.results": counts.get("checks.results", 0),
        "checks.skipped": counts.get("checks.skipped", 0),
    }
    for check in CHECK_NAMES:
        metrics[f"checks.{check}_s"] = self_time[f"checks.{check}"]
    metrics["trace.uncovered_s"] = self_time[ROOT_SPAN]
    return metrics, calls
