import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partition_axis
from partition_axis.invariants import INVARIANTS
from partition_axis.report import (
    BASIC_AXIAL_HEADER,
    EXTREMAL_HEADER,
    SHELLS_HEADER,
    compute_summaries,
    ratio_4dp,
    render_basic_axial,
    render_extremal_location,
    render_shells,
    run_range,
    summarize,
)

from memo import analyze

GOLDEN = Path(__file__).parent / "golden"
DEG = INVARIANTS.index("deg")  # the deg row's place in RangeSummary.extremal


class TestRatio:
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            (1, 7, "0.1429"),
            (1, 3, "0.3333"),
            (1, 1, "1.0000"),
            (0, 5, "0.0000"),
            (5, 8, "0.6250"),
            (6, 22, "0.2727"),
            (276, 5604, "0.0493"),
        ],
    )
    def test_values(self, num, den, expected):
        assert ratio_4dp(num, den) == expected

    def test_exact_tie_rounds_up(self):
        assert ratio_4dp(1, 20000) == "0.0001"
        assert ratio_4dp(3, 20000) == "0.0002"


class TestRows:
    def test_n8_row(self):
        s = summarize(analyze(8))
        assert s.basic_axial == "8,22,yes,2,6,10,0.0909,0.2727,0.4545"

    def test_axisless_row(self):
        s = summarize(analyze(2))
        assert s.basic_axial == "2,2,no,0,--,--,0.0000,--,--"

    def test_extremal_row_n14_deg(self):
        s = summarize(analyze(14))
        assert s.extremal[DEG] == "14,deg,15,2,0,1,0"

    def test_extremal_row_axisless(self):
        s = summarize(analyze(2))
        assert s.extremal[DEG] == "2,deg,1,2,--,--,--"


class TestRendering:
    def test_blocks_grouped_by_invariant(self):
        summaries = compute_summaries(1, 4)
        body = render_extremal_location(summaries).splitlines()
        assert body[0] == EXTREMAL_HEADER
        invariants = [line.split(",")[1] for line in body[1:]]
        assert invariants == ["deg"] * 4 + ["omega_loc"] * 4 + ["dim_loc"] * 4
        ns = [int(line.split(",")[0]) for line in body[1:5]]
        assert ns == [1, 2, 3, 4]

    def test_basic_axial_header_and_order(self):
        summaries = compute_summaries(3, 6)
        body = render_basic_axial(summaries).splitlines()
        assert body[0] == BASIC_AXIAL_HEADER
        assert [int(line.split(",")[0]) for line in body[1:]] == [3, 4, 5, 6]

    def test_shells_skip_axisless(self):
        summaries = compute_summaries(1, 3)
        body = render_shells(summaries).splitlines()
        assert body[0] == SHELLS_HEADER
        assert not any(line.startswith("2,") for line in body[1:])

    def test_shells_n8(self):
        summaries = compute_summaries(8, 8)
        body = render_shells(summaries).splitlines()[1:]
        ax = [line for line in body if line.split(",")[1] == "ax"]
        assert ax[0] == "8,ax,0,2"
        assert ax[1] == "8,ax,1,8"
        total = sum(int(line.split(",")[3]) for line in ax)
        assert total == 22


class TestRunRange:
    def test_writes_all_outputs(self, tmp_path):
        written = run_range(1, 6, tmp_path)
        assert [p.name for p in written] == [
            "basic_axial.csv",
            "extremal_location.csv",
            "shells.csv",
            "manifest.json",
        ]
        for p in written:
            assert p.exists()

    def test_deterministic_csv_bodies(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        run_range(1, 9, first)
        run_range(1, 9, second)
        for name in ("basic_axial.csv", "extremal_location.csv", "shells.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_manifest_checksums_match_files(self, tmp_path):
        run_range(1, 5, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_min"] == 1 and manifest["n_max"] == 5
        assert set(manifest["per_n_seconds"]) == {"1", "2", "3", "4", "5"}
        assert isinstance(manifest["peak_rss_mib"], float) and manifest["peak_rss_mib"] > 0
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == f"sha256:{actual}"

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    def test_manifest_peak_is_the_runs_own(self, tmp_path):
        # Linux hands a process its launcher's ru_maxrss at exec. The
        # launcher touches 80 MiB and then starts report, which itself
        # stays well under 64 MiB for n <= 10.
        launcher = (
            "import subprocess, sys\n"
            "held = b'x' * (80 << 20)\n"
            "subprocess.run([sys.executable, '-m', 'partition_axis.cli', 'report',"
            " '--n-min', '1', '--n-max', '10', '--out-dir', sys.argv[1]], check=True)\n"
        )
        src = str(Path(partition_axis.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", launcher, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            check=True,
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert 0 < manifest["peak_rss_mib"] < 64

    def test_rerun_replaces_files_and_leaves_no_temporaries(self, tmp_path):
        run_range(1, 7, tmp_path)
        (tmp_path / "shells.csv").write_text("stale\n")
        written = run_range(1, 5, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in written)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_max"] == 5
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == f"sha256:{actual}"

    def test_failed_replace_keeps_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        run_range(1, 6, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            run_range(1, 4, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_rejects_invalid_range(self, tmp_path):
        with pytest.raises(ValueError):
            run_range(0, 5, tmp_path)
        with pytest.raises(ValueError):
            run_range(7, 3, tmp_path)

    @pytest.mark.parametrize("threads", [0, -5])
    def test_rejects_a_thread_count_below_one_before_any_write(self, tmp_path, threads):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            run_range(1, 3, out, threads=threads)
        assert not out.exists()
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            compute_summaries(1, 4, threads=threads)

    def test_parallel_equals_serial(self, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run_range(1, 8, serial)
        run_range(1, 8, parallel, threads=2)
        for name in ("basic_axial.csv", "extremal_location.csv", "shells.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_single_n_with_two_threads_starts_no_pool(self, monkeypatch):
        # A forked pool starts all its workers up front, so a range of
        # one n runs in process whatever the thread count.
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        assert [s.n for s in compute_summaries(5, 5, threads=2)] == [5]


class TestAgainstGoldenRows:
    def test_first_ten_basic_rows(self):
        golden = (GOLDEN / "basic_axial.csv").read_text().splitlines()
        mine = render_basic_axial(compute_summaries(1, 10)).splitlines()
        assert mine == golden[:11]

    def test_spot_extremal_rows(self):
        golden = set((GOLDEN / "extremal_location.csv").read_text().splitlines())
        s13 = summarize(analyze(13))
        s2 = summarize(analyze(2))
        assert s13.extremal[DEG] in golden
        assert s2.extremal[INVARIANTS.index("omega_loc")] in golden
