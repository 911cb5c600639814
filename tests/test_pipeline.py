import gc
import weakref

import pytest

from partition_axis import axial_geometry, build_graph, central_region, checks, exports, graph, pipeline, report
from partition_axis.checks import verify_range
from partition_axis.exports import export_graph
from partition_axis.partitions import MAX_N
from partition_axis.report import run_range

RANGE = (1, 12)


def _export_range(out_dir):
    for n in range(RANGE[0], RANGE[1] + 1):
        export_graph(n, "dot", out_dir / f"graph_{n}.dot")


@pytest.mark.parametrize("run", [
    lambda out_dir: run_range(*RANGE, out_dir),
    lambda out_dir: verify_range(*RANGE),
    _export_range,
], ids=["report", "verify", "export"])
def test_range_runs_keep_no_analysis_alive(run, tmp_path, monkeypatch):
    # A range run needs each n's graph only while it works on that n.
    refs = []

    def recording_analyze(n):
        analysis = pipeline.analyze(n)
        refs.append(weakref.ref(analysis))
        return analysis

    for module in (report, checks, exports):
        monkeypatch.setattr(module, "analyze", recording_analyze)
    run(tmp_path)
    gc.collect()
    assert len(refs) == RANGE[1] - RANGE[0] + 1
    assert [ref().n for ref in refs if ref() is not None] == []


@pytest.mark.parametrize("n", [2, 9, 16, 24])
def test_report_and_geometry_paths_build_no_adjacency_rows(n):
    # Degrees, clique numbers, BFS and mediators read the clique cover;
    # sorted rows are only for the n <= 14 clique oracle.
    assert "adjacency" not in vars(pipeline.analyze(n).graph)
    g = build_graph(n)
    central_region(axial_geometry(g), 1)
    assert "adjacency" not in vars(g)


@pytest.mark.parametrize("n", [2, 9, 16, 24])
def test_report_and_geometry_paths_compute_no_conj(n):
    # The axis is read off the parts; conj is computed on first use, and
    # only verify's checks use it.
    assert "conj" not in vars(pipeline.analyze(n).graph)
    g = build_graph(n)
    central_region(axial_geometry(g), 1)
    assert "conj" not in vars(g)


@pytest.mark.parametrize("n_min, n_max", [(1, MAX_N + 45), (MAX_N + 1, MAX_N + 1)])
@pytest.mark.parametrize("run", [
    lambda n_min, n_max, out_dir: run_range(n_min, n_max, out_dir),
    lambda n_min, n_max, out_dir: verify_range(n_min, n_max),
], ids=["report", "verify"])
def test_range_past_max_n_is_rejected_before_any_work(run, n_min, n_max, tmp_path, monkeypatch):
    def refuse(n):
        raise AssertionError(f"enumeration started for n = {n}")

    monkeypatch.setattr(graph, "enumerate_partitions", refuse)
    with pytest.raises(ValueError, match=f"at most {MAX_N}"):
        run(n_min, n_max, tmp_path / "x" / "out")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n", [2, 9, 16])
def test_export_renders_build_no_adjacency_rows(n):
    # Edges are the pairs inside each clique.
    analysis = pipeline.analyze(n)
    exports.render_dot(analysis)
    exports.render_graphml(analysis)
    assert "adjacency" not in vars(analysis.graph)


@pytest.mark.parametrize("n", range(15, 19))
def test_verify_checks_build_no_adjacency_rows(n, monkeypatch):
    # Every check reads the clique cover; only clique_oracle, for n <= 14,
    # builds rows.
    seen = []

    def recording_analyze(n):
        seen.append(pipeline.analyze(n))
        return seen[-1]

    monkeypatch.setattr(checks, "analyze", recording_analyze)
    results = checks.run_checks(n)
    assert [r.name for r in results] == [name for name, *_ in checks._CHECKS]
    assert "adjacency" not in vars(seen[0].graph)
