"""CLI for the pipeline micro-benchmark: ``python -m repro.bench``."""

from __future__ import annotations

import argparse
import json
import sys

from . import DEFAULT_OUT, run_bench

__all__ = ["main"]


def _parse_floor(spec: str) -> "tuple[str, float]":
    name, sep, value = spec.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {spec!r}"
        )
    try:
        return name, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"floor value in {spec!r} is not a number"
        ) from exc


def _run_history(floors: "list[tuple[str, float]] | None") -> int:
    from ..telemetry.export import bench_history, render_history

    report = bench_history(floors=dict(floors or []))
    sys.stdout.write(render_history(report))
    if not report["rows"]:
        sys.stdout.write("no bench runs in the registry\n")
        return 0
    return 1 if report["regressions"] else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the simulation/attack pipeline.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scenario (2 classes x 8 runs) suitable for CI",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the parallel leg (default: REPRO_WORKERS or 4)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"report path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless the parallel leg hits the speedup floor "
        "(multi-core hosts), the batched and dynamic-batching legs clear "
        "their own floors, the "
        "cache replay hits every session, the packed-group store replay "
        "clears its floor, and span profiling stays under its overhead "
        "budget",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent root for the cached-replay leg and the store "
        "micro-bench (default: a temporary directory)",
    )
    parser.add_argument(
        "--history", action="store_true",
        help="instead of benchmarking, print the speedup trajectory "
        "across registered bench runs; exit 1 when the latest run is "
        "below a floor",
    )
    parser.add_argument(
        "--floor", action="append", type=_parse_floor, metavar="NAME=VALUE",
        help="override a speedup floor for --history (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.history:
        return _run_history(args.floor)
    if args.floor:
        parser.error("--floor only applies to --history")
    report = run_bench(
        out_path=args.out, smoke=args.smoke, workers=args.workers,
        check=args.check, cache_dir=args.cache_dir,
    )
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
