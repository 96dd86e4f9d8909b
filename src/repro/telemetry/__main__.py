"""CLI for telemetry streams: ``python -m repro.telemetry <command>``.

* ``summarize <file...>`` — render per-run tables (session summaries,
  event counts by type, metric snapshots) from session/ops JSONL files or
  a ``metrics.json`` snapshot.
* ``diff <a> <b>`` — compare two session event streams after stripping
  their manifest headers.  Exit 0 when every event line is byte-identical
  (the determinism oracle: one-row vs. multi-row lock-step calls, fresh vs.
  cache replay), exit 1 with the first divergence otherwise.
* ``overhead <off.json> <on.json>`` — compare two BENCH_pipeline.json
  reports and fail when the telemetry-on run regresses the summed phase
  timings beyond the budget (the CI overhead gate).
* ``aggregate <path...>`` — fold telemetry dirs, trace-store roots, and
  individual artifacts into one fleet rollup
  (``maya.telemetry.rollup.v1``; see :mod:`repro.telemetry.aggregate`).
* ``export <path>`` — render a ``metrics.json`` snapshot or a rollup as
  Prometheus text exposition v0.0.4 or canonical JSON
  (:mod:`repro.telemetry.export`).
* ``profile <path...>`` — render the span self-time tree from
  ``profile.jsonl`` logs (total/self wall-clock, child coverage).

``summarize`` and ``aggregate`` accept directories: a telemetry dir
(``session-*.jsonl`` + snapshots) or a trace-store root, whose
``shards/<prefix>/*.events.jsonl`` sidecars are discovered automatically.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["main"]


def _read_lines(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


def _parse(line: str) -> dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return {}
    return payload if isinstance(payload, dict) else {}


def _strip_manifest(lines: list) -> list:
    """Event lines only: manifest headers carry run context (engine, git
    SHA, job key) that is *allowed* to differ between equivalent runs."""
    return [line for line in lines if _parse(line).get("type") != "manifest"]


# --------------------------------------------------------------------------
# summarize
# --------------------------------------------------------------------------


def _summarize_jsonl(path: Path) -> None:
    lines = _read_lines(path)
    manifest = None
    summary = None
    counts: dict = {}
    for line in lines:
        payload = _parse(line)
        kind = payload.get("type")
        if kind == "manifest" and manifest is None:
            manifest = payload
        elif kind == "end":
            summary = payload
        elif kind in ("event", "ops"):
            name = str(payload.get("ev", "?"))
            counts[name] = counts.get(name, 0) + 1
    print(f"== {path}")
    if manifest is not None:
        context = " ".join(
            f"{field}={manifest.get(field)}"
            for field in ("platform", "workload", "defense", "seed", "run_id", "engine")
            if manifest.get(field) is not None
        )
        print(f"  session {manifest.get('identity', '?')}  {context}")
        if manifest.get("git_sha"):
            print(f"  git_sha {manifest['git_sha']}")
    if summary is not None:
        for field in (
            "intervals",
            "events",
            "saturation_steps",
            "antiwindup_steps",
            "err_mean_w",
            "err_max_w",
        ):
            if field in summary:
                value = summary[field]
                rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
                print(f"  {field:<18} {rendered}")
    if counts:
        print("  events by type:")
        for name in sorted(counts):
            print(f"    {name:<24} {counts[name]}")


def _summarize_metrics(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    print(f"== {path}")
    for name, value in payload.get("counters", {}).items():
        print(f"  counter {name:<32} {value}")
    for name, value in payload.get("gauges", {}).items():
        print(f"  gauge   {name:<32} {value:.6g}")
    for name, histogram in payload.get("histograms", {}).items():
        print(
            f"  hist    {name:<32} count={histogram.get('count')} "
            f"sum={histogram.get('sum'):.6g}"
        )
        edges = histogram.get("edges", [])
        counts = histogram.get("counts", [])
        labels = [f"<={edge:g}" for edge in edges] + [f">{edges[-1]:g}" if edges else ">"]
        for label, n in zip(labels, counts):
            if n:
                print(f"          {label:<10} {n}")


def _cmd_summarize(args: argparse.Namespace) -> int:
    from .aggregate import discover

    status = 0
    for name in args.files:
        path = Path(name)
        if path.is_dir():
            # A telemetry dir or a trace-store root: summarize every
            # session stream (including sharded .events.jsonl sidecars)
            # and snapshot discovered beneath it, in sorted order.
            found = discover([path])
            targets = found["sessions"] + found["ops"] + found["metrics"]
            if not targets:
                print(f"error: no telemetry artifacts under {path}", file=sys.stderr)
                status = 2
                continue
        elif path.is_file():
            targets = [path]
        else:
            print(f"error: no such file: {path}", file=sys.stderr)
            status = 2
            continue
        for target in targets:
            if target.suffix == ".json":
                _summarize_metrics(target)
            else:
                _summarize_jsonl(target)
    return status


# --------------------------------------------------------------------------
# diff
# --------------------------------------------------------------------------


def _event_counts(lines: list) -> dict:
    counts: dict = {}
    for line in lines:
        name = str(_parse(line).get("ev", "?"))
        counts[name] = counts.get(name, 0) + 1
    return counts


def _cmd_diff(args: argparse.Namespace) -> int:
    path_a, path_b = Path(args.a), Path(args.b)
    lines_a, lines_b = _read_lines(path_a), _read_lines(path_b)
    events_a = _strip_manifest(lines_a)
    events_b = _strip_manifest(lines_b)
    if events_a == events_b:
        print(f"identical: {len(events_a)} event lines (manifest headers stripped)")
        return 0
    print(f"different: {path_a} has {len(events_a)} event lines, "
          f"{path_b} has {len(events_b)}")
    for index, (line_a, line_b) in enumerate(zip(events_a, events_b)):
        if line_a != line_b:
            print(f"first divergence at event line {index}:")
            print(f"  a: {line_a}")
            print(f"  b: {line_b}")
            break
    else:
        index = min(len(events_a), len(events_b))
        longer, extra = (
            (path_a, events_a) if len(events_a) > len(events_b) else (path_b, events_b)
        )
        print(f"streams agree up to line {index}; {longer} continues with:")
        print(f"  {extra[index]}")
    counts_a, counts_b = _event_counts(events_a), _event_counts(events_b)
    for name in sorted(set(counts_a) | set(counts_b)):
        na, nb = counts_a.get(name, 0), counts_b.get(name, 0)
        marker = "" if na == nb else "  <-- differs"
        print(f"  {name:<24} {na:>8} {nb:>8}{marker}")
    return 1


# --------------------------------------------------------------------------
# overhead
# --------------------------------------------------------------------------


def _cmd_overhead(args: argparse.Namespace) -> int:
    baseline = json.loads(Path(args.off).read_text(encoding="utf-8"))
    candidate = json.loads(Path(args.on).read_text(encoding="utf-8"))
    timings_off = baseline.get("timings", {})
    timings_on = candidate.get("timings", {})
    shared = sorted(set(timings_off) & set(timings_on))
    if not shared:
        print("error: the reports share no timing phases", file=sys.stderr)
        return 2
    total_off = sum(float(timings_off[name]) for name in shared)
    total_on = sum(float(timings_on[name]) for name in shared)
    for name in shared:
        off_s, on_s = float(timings_off[name]), float(timings_on[name])
        ratio = on_s / off_s if off_s > 0 else float("inf")
        print(f"  {name:<24} off={off_s:8.3f}s on={on_s:8.3f}s ratio={ratio:5.2f}")
    budgeted = total_off * (1.0 + args.budget) + args.slack_s
    verdict = "within" if total_on <= budgeted else "EXCEEDS"
    print(
        f"total: off={total_off:.3f}s on={total_on:.3f}s "
        f"budget={budgeted:.3f}s ({args.budget:.0%} + {args.slack_s:g}s slack) "
        f"-> {verdict}"
    )
    return 0 if total_on <= budgeted else 1


# --------------------------------------------------------------------------
# aggregate / export / profile
# --------------------------------------------------------------------------


def _cmd_aggregate(args: argparse.Namespace) -> int:
    from .aggregate import fleet_rollup
    from .export import to_json

    rollup = fleet_rollup(args.paths)
    rendered = to_json(rollup)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        sources = rollup["sources"]
        print(
            f"rollup: {sources['sessions']} sessions, "
            f"{sources['metrics_snapshots']} snapshots, "
            f"{sources['profiles']} profiles -> {args.out}"
        )
    else:
        print(rendered, end="")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .export import to_json, to_prometheus

    payload = json.loads(Path(args.path).read_text(encoding="utf-8"))
    rendered = to_json(payload) if args.format == "json" else to_prometheus(payload)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"exported {args.format}: {args.path} -> {args.out}")
    else:
        print(rendered, end="")
    return 0


def _render_span_node(node: dict, indent: int) -> None:
    coverage = node.get("coverage")
    covered = f" cover={coverage:6.1%}" if coverage is not None else ""
    print(
        f"  {'':<{indent}}{node['name']:<{max(28 - indent, 1)}} "
        f"n={node['count']:<7} total={node['total_s']:9.4f}s "
        f"self={node['self_s']:9.4f}s{covered}"
    )
    for child in node.get("children", ()):
        _render_span_node(child, indent + 2)


def _cmd_profile(args: argparse.Namespace) -> int:
    from .aggregate import discover, span_tree

    found = discover(args.paths)
    if not found["profiles"]:
        print("error: no profile.jsonl found", file=sys.stderr)
        return 2
    tree = span_tree(found["profiles"])
    print(f"span tree: {len(found['profiles'])} profile log(s), "
          f"wall {tree['wall_s']:.4f}s")
    for root in tree["roots"]:
        _render_span_node(root, 0)
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Summarize, diff and budget-check telemetry streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser(
        "summarize", help="render per-run tables from telemetry files"
    )
    summarize.add_argument(
        "files", nargs="+",
        help="session/ops .jsonl files, a metrics.json snapshot, a "
             "telemetry dir, or a trace-store root",
    )
    summarize.set_defaults(fn=_cmd_summarize)

    aggregate = commands.add_parser(
        "aggregate", help="fold telemetry artifacts into one fleet rollup"
    )
    aggregate.add_argument(
        "paths", nargs="+",
        help="telemetry dirs, trace-store roots, or individual artifacts",
    )
    aggregate.add_argument("--out", help="write the rollup JSON here")
    aggregate.set_defaults(fn=_cmd_aggregate)

    export = commands.add_parser(
        "export", help="render a metrics snapshot or rollup for scraping"
    )
    export.add_argument("path", help="a metrics.json or rollup JSON file")
    export.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus"
    )
    export.add_argument("--out", help="write the exposition here")
    export.set_defaults(fn=_cmd_export)

    span_profile = commands.add_parser(
        "profile", help="render the span self-time tree from profile logs"
    )
    span_profile.add_argument(
        "paths", nargs="+",
        help="profile.jsonl files or directories containing them",
    )
    span_profile.set_defaults(fn=_cmd_profile)

    diff = commands.add_parser(
        "diff", help="compare two event streams (manifest headers stripped)"
    )
    diff.add_argument("a")
    diff.add_argument("b")
    diff.set_defaults(fn=_cmd_diff)

    overhead = commands.add_parser(
        "overhead", help="gate a telemetry-on bench report against a budget"
    )
    overhead.add_argument("off", help="BENCH json of the telemetry-off run")
    overhead.add_argument("on", help="BENCH json of the telemetry-on run")
    overhead.add_argument(
        "--budget", type=float, default=0.10,
        help="allowed fractional regression of summed phase timings",
    )
    overhead.add_argument(
        "--slack-s", type=float, default=0.5,
        help="absolute slack added to the budget (absorbs timer noise)",
    )
    overhead.set_defaults(fn=_cmd_overhead)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
