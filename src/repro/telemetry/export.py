"""Exposition: render registries and rollups for external consumers.

Two wire formats, both deterministic functions of their input:

* **Prometheus text exposition v0.0.4** (:func:`to_prometheus`) — the
  scrape format the ROADMAP's obfuscation-as-a-service daemon will serve.
  Dotted metric names are sanitized to ``maya_``-prefixed identifiers;
  the original dotted name travels in the ``# HELP`` line, which makes
  the rendering *lossless*: :func:`parse_prometheus` recovers the exact
  registry snapshot (tested round-trip).  Histograms render as
  cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``, per the
  format spec.
* **Canonical JSON** (:func:`to_json`) — sorted keys, stable float
  ``repr``; the form the rollup artifacts are committed in.

Also here: the registry-backed bench-trajectory report
(:func:`bench_history`, surfaced as ``python -m repro.bench --history``),
which joins BENCH speedup results across run-registry manifests and flags
regressions against the same floors the bench's ``--check`` enforces.
"""

from __future__ import annotations

import json
import re

__all__ = [
    "HISTORY_SCHEMA",
    "SPEEDUP_FLOORS",
    "bench_history",
    "parse_prometheus",
    "render_history",
    "to_json",
    "to_prometheus",
]

HISTORY_SCHEMA = "maya.bench.history.v1"

#: Speedup floors of the bench's ``--check`` gates (:mod:`repro.bench`),
#: which the history report also flags against:
#:
#: * ``parallel_speedup`` — worker-pool collection over the reference
#:   (every session alone through the per-interval loop), multi-core hosts
#:   only; 1.3x keeps the gate robust against noisy CI machines;
#: * ``batched_speedup`` — ``workers=1`` lock-step collection over the
#:   same reference; the engine fast-forwards the smoke scenario's
#:   constant-settings defense where the reference decides every interval
#:   (on a noisy 2-core host it reads ~10-14x, so the 10x floor is
#:   marginal there);
#: * ``dynamic_batched_speedup`` — 16 and 32 ``maya_gs`` rows as one
#:   lock-step call over one-row calls, where every row decides every
#:   interval; set below half the lowest of ten ``--check`` runs on a
#:   noisy 2-core host (5.8-7.9x);
#: * ``packed_read_speedup`` — one group pack over one-session packs in
#:   the store micro-bench (one file open and one ``np.load`` for the
#:   whole group).
SPEEDUP_FLOORS = {
    "parallel_speedup": 1.3,
    "batched_speedup": 10.0,
    "dynamic_batched_speedup": 2.5,
    "packed_read_speedup": 2.0,
}

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_PREFIX = "maya_"


def _sanitize(name: str) -> str:
    return _PREFIX + _NAME_RE.sub("_", name)


def _metrics_of(payload: dict) -> dict:
    """The registry snapshot inside ``payload`` (rollup or raw render)."""
    if payload.get("schema") == "maya.telemetry.rollup.v1":
        return payload.get("metrics") or {}
    return payload


def _format_value(value: float) -> str:
    """Float rendering that round-trips exactly through ``float()``."""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_prometheus(payload: dict) -> str:
    """Prometheus text exposition v0.0.4 of a registry render (or rollup).

    Raises :class:`ValueError` when two dotted names sanitize to the same
    identifier — a silent merge would corrupt the scrape.
    """
    metrics = _metrics_of(payload)
    lines: list = []
    seen: dict = {}

    def declare(name: str, kind: str) -> str:
        exposed = _sanitize(name)
        if seen.setdefault(exposed, name) != name:
            raise ValueError(
                f"metric name collision: {name!r} and {seen[exposed]!r} "
                f"both sanitize to {exposed!r}"
            )
        lines.append(f"# HELP {exposed} {name}")
        lines.append(f"# TYPE {exposed} {kind}")
        return exposed

    for name, value in (metrics.get("counters") or {}).items():
        exposed = declare(name, "counter")
        lines.append(f"{exposed} {int(value)}")
    for name, value in (metrics.get("gauges") or {}).items():
        exposed = declare(name, "gauge")
        lines.append(f"{exposed} {_format_value(value)}")
    for name, histogram in (metrics.get("histograms") or {}).items():
        exposed = declare(name, "histogram")
        edges = list(histogram.get("edges") or ())
        counts = list(histogram.get("counts") or ())
        cumulative = 0
        for edge, count in zip(edges, counts):
            cumulative += int(count)
            lines.append(f'{exposed}_bucket{{le="{_format_value(edge)}"}} {cumulative}')
        cumulative += int(counts[-1]) if len(counts) > len(edges) else 0
        lines.append(f'{exposed}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{exposed}_sum {_format_value(histogram.get('sum', 0.0))}")
        lines.append(f"{exposed}_count {int(histogram.get('count', 0))}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict:
    """Recover a registry render from :func:`to_prometheus` output.

    Uses the ``# HELP`` lines to restore the original dotted names and
    the ``# TYPE`` lines to route samples, reversing the cumulative
    bucket encoding; ``parse(render(x)) == x`` for any registry render
    (tested).
    """
    dotted: dict = {}
    kinds: dict = {}
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            exposed, _, original = line[len("# HELP "):].partition(" ")
            dotted[exposed] = original
            continue
        if line.startswith("# TYPE "):
            exposed, _, kind = line[len("# TYPE "):].partition(" ")
            kinds[exposed] = kind
            continue
        if line.startswith("#"):
            continue
        sample, _, rendered = line.rpartition(" ")
        exposed, _, labels = sample.partition("{")
        if exposed.endswith("_bucket") and exposed[: -len("_bucket")] in kinds:
            base = exposed[: -len("_bucket")]
            entry = histograms.setdefault(dotted[base], {"buckets": []})
            le = labels.rstrip("}").partition("=")[2].strip('"')
            entry["buckets"].append((le, int(rendered)))
        elif exposed.endswith("_sum") and exposed[: -len("_sum")] in kinds:
            histograms.setdefault(dotted[exposed[: -len("_sum")]], {"buckets": []})[
                "sum"
            ] = float(rendered)
        elif exposed.endswith("_count") and exposed[: -len("_count")] in kinds:
            histograms.setdefault(dotted[exposed[: -len("_count")]], {"buckets": []})[
                "count"
            ] = int(rendered)
        elif kinds.get(exposed) == "counter":
            counters[dotted[exposed]] = int(rendered)
        elif kinds.get(exposed) == "gauge":
            gauges[dotted[exposed]] = float(rendered)
    rendered_histograms: dict = {}
    for name, entry in histograms.items():
        edges = [float(le) for le, _ in entry["buckets"] if le != "+Inf"]
        cumulative = [count for le, count in entry["buckets"] if le != "+Inf"]
        counts = [
            count - (cumulative[index - 1] if index else 0)
            for index, count in enumerate(cumulative)
        ]
        total_count = int(entry.get("count", 0))
        counts.append(total_count - (cumulative[-1] if cumulative else 0))
        rendered_histograms[name] = {
            "edges": edges,
            "counts": counts,
            "count": total_count,
            "sum": float(entry.get("sum", 0.0)),
        }
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(rendered_histograms.items())),
    }


def to_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# bench trajectory
# --------------------------------------------------------------------------


def bench_history(registry=None, floors: "dict | None" = None) -> dict:
    """Join BENCH results across run-registry manifests, oldest first.

    ``registry`` is a :class:`repro.exec.registry.RunRegistry` (default:
    the ambient one).  Each bench manifest contributes one row of speedup
    results; any metric below its floor (``floors`` overrides
    :data:`SPEEDUP_FLOORS`) is listed in the row's ``flags``.  The report
    carries ``regressions`` — the latest run's flagged metrics — so
    callers can gate on trajectory health.
    """
    if registry is None:
        from ..exec.registry import RunRegistry

        registry = RunRegistry()
    effective = dict(SPEEDUP_FLOORS)
    effective.update(floors or {})
    rows: list = []
    for summary in registry.list_runs():
        if summary.get("kind") != "bench":
            continue
        try:
            manifest = registry.get(summary["run_id"])
        except KeyError:
            continue
        results = manifest.get("results") or {}
        speedups = {
            name: float(value)
            for name, value in sorted(results.items())
            if name in effective and isinstance(value, (int, float))
        }
        flags = sorted(
            name for name, value in speedups.items() if value < effective[name]
        )
        rows.append(
            {
                "run_id": manifest.get("run_id"),
                "name": manifest.get("name"),
                "git_sha": manifest.get("git_sha"),
                "results": speedups,
                "flags": flags,
            }
        )
    return {
        "schema": HISTORY_SCHEMA,
        "floors": dict(sorted(effective.items())),
        "rows": rows,
        "regressions": rows[-1]["flags"] if rows else [],
    }


def render_history(report: dict) -> str:
    """Human-readable table of a :func:`bench_history` report."""
    metrics = sorted(report.get("floors", {}))
    header = f"{'run_id':<18} {'name':<14} " + " ".join(f"{m:>16}" for m in metrics)
    lines = [header]
    for row in report.get("rows", []):
        cells = []
        for metric in metrics:
            value = row.get("results", {}).get(metric)
            mark = "!" if metric in row.get("flags", []) else ""
            cells.append(f"{value:>15.2f}{mark}" if value is not None else f"{'-':>16}")
        run_id = str(row.get("run_id"))[:17]
        lines.append(f"{run_id:<18} {str(row.get('name')):<14} " + " ".join(cells))
    floors = report.get("floors", {})
    lines.append(
        "floors: " + " ".join(f"{m}>={floors[m]:g}" for m in metrics)
    )
    if report.get("regressions"):
        lines.append("REGRESSIONS (latest run): " + ", ".join(report["regressions"]))
    return "\n".join(lines) + "\n"
