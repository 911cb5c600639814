"""Acceptance suite: exact reproduction of the reference dataset plus the
structural guarantees, one printed pass/fail line per criterion."""

import time
from pathlib import Path

import pytest

from partition_axis import local_clique_number, local_clique_number_oracle
from partition_axis.checks import run_checks
from partition_axis.invariants import DEG, DIM_LOC, OMEGA_LOC
from partition_axis.report import run_range

from memo import analyze

GOLDEN = Path(__file__).parent / "golden"
EXTENDED = Path(__file__).parent / "extended"
FULL_RANGE = (1, 30)


def _verdict(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    """Cold full-range report run, with its wall time."""
    out_dir = tmp_path_factory.mktemp("report")
    start = time.perf_counter()
    run_range(*FULL_RANGE, out_dir)
    elapsed = time.perf_counter() - start
    return out_dir, elapsed


def test_criterion_1_basic_axial_table(full_report):
    out_dir, elapsed = full_report
    emitted = (out_dir / "basic_axial.csv").read_bytes()
    expected = (GOLDEN / "basic_axial.csv").read_bytes()
    ok = emitted == expected and elapsed < 60.0
    assert _verdict(f"criterion-1 basic-axial-table ({elapsed:.1f}s)", ok)
    assert emitted == expected
    assert elapsed < 60.0


def test_criterion_2_extremal_location_table(full_report):
    out_dir, _ = full_report
    emitted = (out_dir / "extremal_location.csv").read_bytes()
    expected = (GOLDEN / "extremal_location.csv").read_bytes()
    ok = emitted == expected
    assert _verdict("criterion-2 extremal-location-table", ok)


def test_criterion_2_shells_table(full_report):
    out_dir, _ = full_report
    emitted = (out_dir / "shells.csv").read_bytes()
    expected = (GOLDEN / "shells.csv").read_bytes()
    ok = emitted == expected
    assert _verdict("criterion-2 shells-table", ok)


def test_criterion_3_radius_bounds(full_report):
    deg_ax, deg_sp, clique = [], [], []
    for n in range(FULL_RANGE[0], FULL_RANGE[1] + 1):
        a = analyze(n)
        if not a.geometry.is_axial:
            continue
        deg_ax.append(a.profiles[DEG].rho_ax)
        deg_sp.append(a.profiles[DEG].rho_sp)
        for inv in (OMEGA_LOC, DIM_LOC):
            clique.append(a.profiles[inv].rho_ax)
            clique.append(a.profiles[inv].rho_sp)
    at_28 = analyze(28).profiles[OMEGA_LOC]
    ok = (
        max(deg_ax) == 2
        and max(deg_sp) == 2
        and max(clique) == 4
        and (at_28.rho_ax, at_28.rho_sp) == (4, 4)
    )
    assert _verdict("criterion-3 concentration-radius-bounds", ok)


def test_criterion_4_structural_properties():
    results = [r for n in range(1, 21) for r in run_checks(n)]
    failures = [r.line() for r in results if r.failed]
    ok = not failures
    assert _verdict("criterion-4 structural-property-suite (n<=20)", ok), failures
    pinned = (EXTENDED / "verify_1_20.txt").read_text().splitlines()
    assert [r.line() for r in results] == [line for line in pinned if not line.startswith("#")]


def test_criterion_5_clique_oracle_equivalence():
    start = time.perf_counter()
    disagreements = []
    for n in range(1, 15):
        g = analyze(n).graph
        for v in range(g.num_vertices):
            if local_clique_number(g, v) != local_clique_number_oracle(g, v):
                disagreements.append((n, v))
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 30.0
    assert _verdict(f"criterion-5 clique-oracle-equivalence ({elapsed:.1f}s)", ok), disagreements
    assert elapsed < 30.0


def test_criterion_6_report_determinism(tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    run_range(*FULL_RANGE, first)
    run_range(*FULL_RANGE, second)
    ok = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("basic_axial.csv", "extremal_location.csv", "shells.csv")
    )
    assert _verdict("criterion-6 report-determinism", ok)
