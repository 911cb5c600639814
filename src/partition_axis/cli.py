"""Command-line driver: dataset reports, graph exports, property verification."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .checks import verify_range
from .exports import FORMATS, export_graph
from .partitions import check_range
from .report import GOLDEN_RANGE_MAX, run_range


def _add_range_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n-min", type=int, required=True, help="smallest n to process")
    sub.add_argument("--n-max", type=int, required=True, help="largest n to process")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-axis",
        description="Analyze the symmetric core of partition transfer graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="emit CSV datasets for a range of n")
    _add_range_args(report)
    report.add_argument("--out-dir", type=Path, default=Path("out"))
    report.add_argument("--threads", type=int, default=1, help="worker processes for per-n analysis")

    export = sub.add_parser("export", help="write DOT/GraphML graph files")
    _add_range_args(export)
    export.add_argument("--format", choices=FORMATS, required=True)
    export.add_argument("--out-dir", type=Path, default=Path("out"))

    verify = sub.add_parser("verify", help="run structural property suites")
    _add_range_args(verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_range(args.n_min, args.n_max)
    except ValueError as exc:
        parser.error(str(exc))

    if args.command == "verify":
        results = verify_range(args.n_min, args.n_max)
        for result in results:
            print(result.line())
        failures = sum(1 for r in results if r.failed)
        print(f"{len(results)} checks, {failures} failures")
        return 1 if failures else 0

    # mkdir fails unless the nearest existing ancestor is a directory.
    nearest = next((p for p in (args.out_dir, *args.out_dir.parents) if p.exists()), None)
    if nearest is not None and not nearest.is_dir():
        parser.error(f"--out-dir {args.out_dir}: {nearest} exists and is not a directory")
    if args.command == "report":
        max_threads = os.cpu_count() or 1
        if not 1 <= args.threads <= max_threads:
            parser.error(f"--threads must be between 1 and {max_threads}, got {args.threads}")
        if args.n_max > GOLDEN_RANGE_MAX:
            print(
                f"warning: n > {GOLDEN_RANGE_MAX} is outside the verified dataset range; "
                "no golden data exists there",
                file=sys.stderr,
            )
    try:
        if args.command == "report":
            written = run_range(args.n_min, args.n_max, args.out_dir, threads=args.threads)
        else:
            # Each graph file is written, and its path printed, in turn.
            written = (
                export_graph(n, args.format, args.out_dir / f"graph_{n}.{args.format}")
                for n in range(args.n_min, args.n_max + 1)
            )
        for path in written:
            print(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
