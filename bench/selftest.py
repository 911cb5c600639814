"""Shows that every workload's oracle accepts real output and rejects corrupted copies.

    python3 bench/selftest.py

Runs one job per distinct oracle (report, geometry, verify), checks that
its real output passes, then checks each corruption below against a copy
and requires at least one failed check. Exits 1 if any corruption slips
through or the real output fails.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
import time
from pathlib import Path

from oracles import check_geometry, check_report, check_verify
from run import GOLDEN, WORK, spawn
from workloads import WORKLOADS


def flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def bump_last_count(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    head, count = lines[-1].rstrip("\n").rsplit(",", 1)
    lines[-1] = f"{head},{int(count) + 1}\n"
    path.write_text("".join(lines))


def report_cases(out: Path, rc: int):
    yield "real output", check_report(out, rc, GOLDEN)
    for name, corrupt in (
        ("basic_axial.csv: one byte flipped", lambda d: flip_byte(d / "basic_axial.csv", 100)),
        ("extremal_location.csv: one byte flipped", lambda d: flip_byte(d / "extremal_location.csv", 200)),
        ("shells.csv: one shell count off by one", lambda d: bump_last_count(d / "shells.csv")),
        ("shells.csv: missing", lambda d: (d / "shells.csv").unlink()),
    ):
        bad = out.parent / "corrupt"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        corrupt(bad)
        yield name, check_report(bad, rc, GOLDEN)
    yield "nonzero exit status", check_report(out, 1, GOLDEN)


def geometry_cases(results: dict, ns: tuple[int, ...]):
    yield "real output", check_geometry(results, ns)
    for name, n, key, change in (
        ("p(38) off by one", "38", "p", lambda v: v + 1),
        ("axis size of n=36 off by one", "36", "axis", lambda v: v - 1),
        ("sigma of n=40 off by one", "40", "sigma", lambda v: v + 1),
        ("c1 of n=35 off by one", "35", "c1", lambda v: v + 1),
        ("one axial shell count of n=39 off by one", "39", "ax_shells", lambda v: v[:3] + [v[3] + 1] + v[4:]),
        ("one spinal shell count of n=37 off by one", "37", "sp_shells", lambda v: v[:-1] + [v[-1] - 1]),
    ):
        bad = copy.deepcopy(results)
        bad[n][key] = change(bad[n][key])
        yield name, check_geometry(bad, ns)
    bad = copy.deepcopy(results)
    del bad["40"]
    yield "n=40 missing", check_geometry(bad, ns)


def verify_cases(stdout: str, rc: int):
    yield "real output", check_verify(stdout, rc)
    yield "one check reported FAIL", check_verify(stdout.replace(": pass", ": FAIL", 1), rc)
    lines = stdout.splitlines(keepends=True)
    yield "one result line dropped", check_verify("".join(lines[:5] + lines[6:]), rc)
    yield "nonzero exit status", check_verify(stdout, 1)


def main() -> int:
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    deadline = time.monotonic() + 600
    outcomes = []  # (oracle, case, failed checks, attempted)
    try:
        for workload_name in ("report-golden", "geometry-deep", "verify-range"):
            workload = WORKLOADS[workload_name]
            job_dir = tmp / workload_name
            record, _ = spawn(workload, 0, job_dir, [], deadline)
            if workload.kind == "report":
                cases = report_cases(job_dir / "out", record["rc"])
            elif workload.kind == "geometry":
                cases = geometry_cases(record["results"], workload.ns)
            else:
                cases = verify_cases((job_dir / "stdout.txt").read_text(), record["rc"])
            for name, checks in cases:
                failed = sum(1 for _, ok in checks if not ok)
                outcomes.append((workload.kind, name, failed, len(checks)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    wrong = 0
    for oracle, case, failed, attempted in outcomes:
        expected_pass = case == "real output"
        ok = (failed == 0) == expected_pass
        wrong += not ok
        verdict = "accepted" if failed == 0 else "rejected"
        print(f"{'ok ' if ok else 'BAD'} {oracle:8} {case:45} {verdict} ({failed}/{attempted} checks failed)")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
