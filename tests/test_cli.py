import os

import pytest

import partition_axis.graph
from partition_axis.cli import main
from partition_axis.partitions import MAX_N


def test_report_writes_files(tmp_path, capsys):
    assert main(["report", "--n-min", "1", "--n-max", "8", "--out-dir", str(tmp_path)]) == 0
    for name in ("basic_axial.csv", "extremal_location.csv", "shells.csv", "manifest.json"):
        assert (tmp_path / name).exists()
    out = capsys.readouterr()
    assert "basic_axial.csv" in out.out
    assert "warning" not in out.err


def test_report_warns_beyond_golden_range(tmp_path, capsys):
    assert main(["report", "--n-min", "31", "--n-max", "31", "--out-dir", str(tmp_path)]) == 0
    assert "warning" in capsys.readouterr().err


def test_report_threads_flag(tmp_path):
    assert main(["report", "--n-min", "1", "--n-max", "6",
                 "--out-dir", str(tmp_path), "--threads", "2"]) == 0
    assert (tmp_path / "basic_axial.csv").exists()


@pytest.mark.parametrize("args", [
    ["report", "--n-min", "0", "--n-max", "5"],
    ["report", "--n-min", "9", "--n-max", "3"],
    ["verify", "--n-min", "-2", "--n-max", "4"],
    ["report", "--n-min", "1", "--n-max", "3", "--threads", "0"],
    ["report", "--n-min", "1", "--n-max", "3", "--threads", "-3"],
    ["report", "--n-min", "1", "--n-max", "3", "--threads", str((os.cpu_count() or 1) + 1)],
    ["report", "--n-min", "1", "--n-max", str(MAX_N + 1)],
    ["export", "--n-min", "1", "--n-max", str(MAX_N + 1), "--format", "dot"],
    ["verify", "--n-min", "1", "--n-max", str(MAX_N + 1)],
])
def test_invalid_range_is_usage_error(args, tmp_path, monkeypatch):
    def refuse(n):
        raise AssertionError(f"enumeration started for n = {n}")

    monkeypatch.setattr(partition_axis.graph, "enumerate_partitions", refuse)
    with pytest.raises(SystemExit) as exc:
        main(args + (["--out-dir", str(tmp_path)] if args[0] != "verify" else []))
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["report"],
    ["export", "--format", "dot"],
])
def test_out_dir_naming_a_file_is_usage_error(command, tmp_path):
    target = tmp_path / "taken"
    target.write_text("keep\n")
    for out_dir in (target, target / "sub"):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--n-min", "1", "--n-max", "3", "--out-dir", str(out_dir)])
        assert exc.value.code == 2
    assert target.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("command", [
    ["report"],
    ["export", "--format", "graphml"],
])
def test_failed_write_is_one_error_line_and_exit_1(command, tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(command + ["--n-min", "1", "--n-max", "3", "--out-dir", str(tmp_path)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error:")
    assert out.err == "error: replace refused\n"  # no traceback
    assert out.out == ""


def test_export_unsupported_format_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--n-min", "4", "--n-max", "4",
              "--format", "gexf", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_export_writes_one_file_per_n(tmp_path):
    assert main(["export", "--n-min", "3", "--n-max", "5",
                 "--format", "dot", "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "graph_3.dot", "graph_4.dot", "graph_5.dot",
    ]


def test_verify_passes_and_reports_lines(capsys):
    assert main(["verify", "--n-min", "1", "--n-max", "8"]) == 0
    out = capsys.readouterr().out
    assert "n=8 axis_edgeless: pass" in out
    assert "0 failures" in out


def test_verify_axisless_suites_skipped(capsys):
    assert main(["verify", "--n-min", "2", "--n-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "n=2 spine_sandwich: skipped (axisless)" in out
    assert "n=2 conjugation_involution: pass" in out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
