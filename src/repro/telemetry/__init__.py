"""repro.telemetry — deterministic sim-time tracing, metrics, and manifests.

Maya's security argument rests on internal dynamics the traces alone do
not show: controller saturation and anti-windup activations, fixed-point
clipping, the per-interval tracking error against the GS mask, and the
execution engine's operational behaviour (cache interactions, retries,
batch grouping).  This package makes those dynamics observable without
ever feeding back into them:

* **Strictly out-of-band.**  A recorder sink is injected (ambient module
  state set by :func:`set_recorder` or the ``REPRO_TELEMETRY`` env var);
  the default is the :class:`NullRecorder`, whose cost is one attribute
  check per emission site.  Simulation state never reads telemetry back,
  and lint rule MAYA032 statically enforces that no ``repro.telemetry``
  symbol flows into machine/controller state — simulation packages may
  only *call* telemetry functions fire-and-forget.
* **Deterministic sim time.**  Every session event is keyed on the
  control-interval index (sim time = index × ``interval_s``), never the
  host clock (MAYA002 bans wall-clock reads in sim code).  Two runs of
  the same :class:`~repro.exec.jobs.SessionJob` — alone or in a lock-step
  fleet, fresh or replayed from the trace cache — therefore produce
  byte-identical session JSONL (tested).
* **Per-session files + run manifests.**  Each session's events land in
  ``session-<digest>.jsonl`` under ``REPRO_TELEMETRY_DIR`` (default
  ``.maya-telemetry/``), headed by a manifest line binding the session to
  its job content address, code salt, git SHA, platform, and seed.
  Engine-level operational events (cache hits, retries, batch groups,
  attack-pipeline folds) stream to ``ops.jsonl``; metric snapshots are
  rendered to ``metrics.json``.
* **Metrics registry.**  Counters, gauges, and fixed-bucket histograms
  (bucket edges are static constants, so rendered output is
  reproducible).

CLI: ``python -m repro.telemetry summarize|diff|overhead`` renders
per-run metric tables, diffs two event streams (proving bit-identity
extends to *behavioural* identity across execution paths), and gates the
recording overhead against a benchmark budget.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
from bisect import bisect_left
from pathlib import Path

__all__ = [
    "DEFAULT_TELEMETRY_DIR",
    "ERR_HIST_EDGES_W",
    "GROUP_SIZE_HIST_EDGES",
    "MANIFEST_SCHEMA",
    "METRICS_SCHEMA",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "SessionChannel",
    "TelemetryRecorder",
    "count",
    "enabled",
    "gauge",
    "get_recorder",
    "git_sha",
    "job_identity",
    "observe",
    "ops",
    "session_digest",
    "set_recorder",
    "write_metrics",
]

MANIFEST_SCHEMA = "maya.telemetry.session.v1"
METRICS_SCHEMA = "maya.telemetry.metrics.v1"
DEFAULT_TELEMETRY_DIR = ".maya-telemetry"
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Static bucket edges (watts) for the per-interval |tracking error|
#: histogram.  Fixed at import time so rendered histograms are
#: reproducible across runs and hosts.
ERR_HIST_EDGES_W = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Static bucket edges for the lock-step batch-group size histogram.
GROUP_SIZE_HIST_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Compact, canonical JSONL encoding shared by every writer.
_JSON_SEPARATORS = (",", ":")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=_JSON_SEPARATORS)


# --------------------------------------------------------------------------
# Metrics registry
# --------------------------------------------------------------------------


class Histogram:
    """Fixed-bucket histogram: static edges, reproducible rendering.

    ``counts[i]`` holds observations with ``value <= edges[i]``; the final
    bucket is the overflow (``value > edges[-1]``).  ``sum`` accumulates in
    observation order, so identical observation sequences render
    identically.
    """

    def __init__(self, edges: tuple) -> None:
        if not edges or list(edges) != sorted(float(e) for e in edges):
            raise ValueError("histogram edges must be a sorted, non-empty tuple")
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.n = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.n += 1
        self.total += value

    def render(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.n,
            "sum": self.total,
        }

    def merge(self, rendered: dict) -> None:
        """Fold a rendered snapshot in: bucket-wise counts, exact totals.

        Static edges make this lossless — both sides bucketed against the
        same boundaries, so merged counts equal the counts a single
        registry observing the union would have produced.  Mismatched
        edges are a schema error, not a merge.
        """
        edges = tuple(float(e) for e in rendered.get("edges", ()))
        if edges != self.edges:
            raise ValueError(
                f"histogram edge mismatch: {list(self.edges)} vs {list(edges)}"
            )
        counts = rendered.get("counts", [])
        if len(counts) != len(self.counts):
            raise ValueError("histogram bucket-count mismatch")
        self.counts = [a + int(b) for a, b in zip(self.counts, counts)]
        self.n += int(rendered.get("count", 0))
        self.total += float(rendered.get("sum", 0.0))


class MetricsRegistry:
    """Counters, gauges, and fixed-bucket histograms, rendered sorted."""

    def __init__(self) -> None:
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + int(n)

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float, edges: tuple) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(edges)
        histogram.observe(value)

    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def merge(self, other: object) -> "MetricsRegistry":
        """Fold another registry (or a rendered snapshot) into this one.

        Counters add exactly (integer addition); histograms merge
        bucket-wise via :meth:`Histogram.merge`; gauges are last-write-wins
        (callers feed snapshots in sorted order, so the fold is
        deterministic).  Returns ``self`` so folds chain.
        """
        payload = other.render() if isinstance(other, MetricsRegistry) else dict(other)
        for name, value in (payload.get("counters") or {}).items():
            self.count(name, int(value))
        for name, value in (payload.get("gauges") or {}).items():
            self._gauges[name] = float(value)
        for name, rendered in (payload.get("histograms") or {}).items():
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(
                    tuple(rendered.get("edges", ()))
                )
            histogram.merge(rendered)
        return self

    def render(self) -> dict:
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: histogram.render()
                for name, histogram in sorted(self._histograms.items())
            },
        }


# --------------------------------------------------------------------------
# Session identity
# --------------------------------------------------------------------------

#: The fields that identify one session run (a behavioural identity: two
#: runs sharing them must emit identical event streams).  Deliberately
#: excludes *how* the session was executed (fleet size, worker count, cache state).
_IDENTITY_FIELDS = (
    "platform",
    "workload",
    "defense",
    "seed",
    "run_id",
    "interval_s",
    "duration_s",
    "tick_s",
    "max_duration_s",
    "tail_s",
    "record_temperature",
)


def session_digest(**identity: object) -> str:
    """Stable 20-hex digest of a session's identity fields."""
    parts = []
    for field in _IDENTITY_FIELDS:
        value = identity.get(field)
        if field == "run_id":
            rendered = repr(value)
        elif value is None:
            rendered = "None"
        elif isinstance(value, bool):
            rendered = str(value)
        elif isinstance(value, (int, float)):
            rendered = repr(float(value)) if isinstance(value, float) else repr(value)
        else:
            rendered = str(value)
        parts.append(f"{field}={rendered}")
    digest = hashlib.sha256("|".join(parts).encode())
    return digest.hexdigest()[:20]


def job_identity(job) -> str:
    """The session digest of a :class:`~repro.exec.jobs.SessionJob`.

    Must agree with the identity of the channel the lock-step kernel opens
    for the same job — the trace cache keys its telemetry
    sidecars on this.
    """
    return session_digest(
        platform=job.spec.name,
        workload=job.workload,
        defense=job.defense,
        seed=job.seed,
        run_id=job.run_id,
        interval_s=job.interval_s,
        duration_s=job.duration_s,
        tick_s=job.tick_s,
        max_duration_s=job.max_duration_s,
        tail_s=job.tail_s,
        record_temperature=job.record_temperature,
    )


def git_sha() -> "str | None":
    """The repository HEAD SHA, or None outside a git checkout."""
    global _GIT_SHA
    if _GIT_SHA is _UNSET:
        sha = os.environ.get("GITHUB_SHA", "").strip() or None
        if sha is None:
            try:
                sha = subprocess.run(
                    ["git", "rev-parse", "HEAD"],
                    capture_output=True,
                    text=True,
                    timeout=5,
                    check=True,
                ).stdout.strip() or None
            except (OSError, subprocess.SubprocessError):
                sha = None
        _GIT_SHA = sha
    return _GIT_SHA


_UNSET = object()
_GIT_SHA: object = _UNSET


def _code_salt() -> "str | None":
    # Lazy import: repro.exec imports this package, so the reverse edge
    # must stay function-local.
    try:
        from ..exec.jobs import code_salt

        return code_salt()
    except Exception:  # pragma: no cover - salt is best-effort metadata
        return None


# --------------------------------------------------------------------------
# Recorders and session channels
# --------------------------------------------------------------------------


class SessionChannel:
    """Buffered event stream of one session run.

    Events are serialized eagerly (so a session produces the exact same
    bytes at any fleet size) and written as one JSONL
    file — manifest line, events, summary line — atomically at
    :meth:`close`.
    """

    def __init__(
        self,
        recorder: "TelemetryRecorder",
        identity: dict,
        engine: str,
        job_key: "str | None" = None,
    ) -> None:
        self.recorder = recorder
        self.identity = dict(identity)
        self.digest = session_digest(**identity)
        self.engine = engine
        self.job_key = job_key
        self._lines: list = []
        self.n_intervals = 0
        self.saturation_steps = 0
        self.antiwindup_steps = 0
        self._err_n = 0
        self._err_sum_w = 0.0
        self._err_max_w = 0.0

    def interval(self, t, target_w, measured_w, settings, defense) -> None:
        """One control-interval sample, keyed on sim time (interval index).

        ``target_w``/``measured_w``/``settings`` mirror exactly what the
        trace logs for interval ``t`` (the command active *during* the
        interval); the defense diagnostics describe the decision taken at
        the interval's end.
        """
        event: dict = {"type": "event", "ev": "interval", "t": int(t)}
        measured = float(measured_w)
        event["measured_w"] = measured
        target = float(target_w)
        if math.isfinite(target):
            err_w = target - measured
            event["target_w"] = target
            event["err_w"] = err_w
            self._err_n += 1
            self._err_sum_w += abs(err_w)
            self._err_max_w = max(self._err_max_w, abs(err_w))
            self.recorder.metrics.observe(
                "session.abs_err_w", abs(err_w), ERR_HIST_EDGES_W
            )
        event["freq_ghz"] = float(settings.freq_ghz)
        event["idle_frac"] = float(settings.idle_frac)
        event["balloon_level"] = float(settings.balloon_level)
        diagnostics = defense.diagnostics()
        if diagnostics is not None:
            sat_hi = int(diagnostics.get("sat_hi", 0))
            sat_lo = int(diagnostics.get("sat_lo", 0))
            antiwindup = int(diagnostics.get("aw", 0))
            event["sat_hi"] = sat_hi
            event["sat_lo"] = sat_lo
            event["aw"] = antiwindup
            if sat_hi or sat_lo:
                self.saturation_steps += 1
            self.antiwindup_steps += antiwindup
        self.n_intervals += 1
        self._lines.append(_dumps(event))

    def _manifest(self) -> dict:
        manifest: dict = {
            "type": "manifest",
            "schema": MANIFEST_SCHEMA,
            "identity": self.digest,
            "engine": self.engine,
            "job_key": self.job_key,
            "code_salt": _code_salt(),
            "git_sha": git_sha(),
        }
        for field in _IDENTITY_FIELDS:
            value = self.identity.get(field)
            manifest[field] = repr(value) if field == "run_id" else value
        return manifest

    def _summary(self) -> dict:
        summary: dict = {
            "type": "end",
            "intervals": self.n_intervals,
            "events": len(self._lines),
            "saturation_steps": self.saturation_steps,
            "antiwindup_steps": self.antiwindup_steps,
        }
        if self._err_n:
            summary["err_mean_w"] = self._err_sum_w / self._err_n
            summary["err_max_w"] = self._err_max_w
        return summary

    def close(self) -> Path:
        """Write the session file atomically and return its path."""
        lines = [_dumps(self._manifest()), *self._lines, _dumps(self._summary())]
        path = self.recorder.session_path(self.digest)
        self.recorder.metrics.count("telemetry.sessions")
        _atomic_write_text(path, "\n".join(lines) + "\n")
        return path


class NullRecorder:
    """The default sink: disabled, near-zero cost at every emission site."""

    enabled = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NullRecorder>"


class TelemetryRecorder:
    """JSONL recorder: per-session files, an ops stream, metric snapshots."""

    enabled = True

    def __init__(self, root: object = None) -> None:
        if root is None:
            root = (
                os.environ.get("REPRO_TELEMETRY_DIR", "").strip()
                or DEFAULT_TELEMETRY_DIR
            )
        self.root = Path(root)
        self.metrics = MetricsRegistry()
        self._ops_seq = 0

    # -- session streams ----------------------------------------------

    def session(
        self, *, engine: str = "lockstep", job_key: "str | None" = None,
        **identity: object,
    ) -> SessionChannel:
        return SessionChannel(self, identity, engine=engine, job_key=job_key)

    def session_path(self, digest: str) -> Path:
        return self.root / f"session-{digest}.jsonl"

    # -- operational stream -------------------------------------------

    def ops(self, name: str, **fields: object) -> None:
        """Append one engine-level event to ``ops.jsonl``.

        Ops events are ordered by a per-recorder sequence number, not a
        timestamp: the engine layer is not a sanctioned wall-clock site
        (MAYA002), so spans are delimited by begin/end events in sequence
        space.
        """
        payload: dict = {"type": "ops", "seq": self._ops_seq, "ev": str(name)}
        payload.update(fields)
        self._ops_seq += 1
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / "ops.jsonl", "a", encoding="utf-8") as stream:
            stream.write(_dumps(payload) + "\n")

    # -- metrics snapshot ---------------------------------------------

    def write_metrics(self) -> Path:
        payload = {"schema": METRICS_SCHEMA}
        payload.update(self.metrics.render())
        path = self.root / "metrics.json"
        _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# Ambient recorder (the injection point)
# --------------------------------------------------------------------------

_RECORDER: object = None


def get_recorder():
    """The ambient recorder; lazily derived from ``REPRO_TELEMETRY``."""
    global _RECORDER
    if _RECORDER is None:
        if os.environ.get("REPRO_TELEMETRY", "").strip().lower() in _TRUTHY:
            _RECORDER = TelemetryRecorder()
        else:
            _RECORDER = NullRecorder()
    return _RECORDER


def set_recorder(recorder) -> None:
    """Inject a recorder (None re-derives from the environment lazily)."""
    global _RECORDER
    _RECORDER = recorder


def enabled() -> bool:
    return get_recorder().enabled


# --------------------------------------------------------------------------
# Module-level conveniences (no-ops when disabled)
# --------------------------------------------------------------------------


def ops(name: str, **fields: object) -> None:
    recorder = get_recorder()
    if recorder.enabled:
        recorder.ops(name, **fields)


def count(name: str, n: int = 1) -> None:
    recorder = get_recorder()
    if recorder.enabled:
        recorder.metrics.count(name, n)


def gauge(name: str, value: float) -> None:
    recorder = get_recorder()
    if recorder.enabled:
        recorder.metrics.gauge(name, value)


def observe(name: str, value: float, edges: tuple) -> None:
    recorder = get_recorder()
    if recorder.enabled:
        recorder.metrics.observe(name, value, edges)


def write_metrics() -> None:
    recorder = get_recorder()
    if recorder.enabled:
        recorder.write_metrics()


# --------------------------------------------------------------------------
# Trace-cache sidecars (byte-exact replay of cached sessions)
# --------------------------------------------------------------------------


def store_session_events(sidecar_path: Path, job) -> int:
    """Copy a just-executed job's session file next to its cache entry.

    Returns the number of sidecar bytes written (0 when recording is off
    or the session left no stream) so the trace store can charge them to
    the entry's size accounting without re-statting the file.
    """
    recorder = get_recorder()
    if not recorder.enabled:
        return 0
    try:
        source = recorder.session_path(job_identity(job))
    except AttributeError:
        # Synthetic jobs (e.g. the store micro-bench) carry a cache key
        # but no behavioural identity — they leave no session stream.
        return 0
    try:
        data = source.read_bytes()
    except OSError:
        return 0
    _atomic_write_bytes(Path(sidecar_path), data)
    return len(data)


def restore_session_events(sidecar_path: Path, job) -> int:
    """Replay a cache hit's sidecar into the telemetry directory.

    The sidecar is a byte copy of the session file the original execution
    produced, so a cached run's telemetry is byte-identical to a fresh
    one (the manifest records the *original* execution's engine).
    A sidecar that is not a whole session file (see
    :func:`_whole_session`) is treated as absent: nothing is written and
    nothing counted.  Returns the number of bytes replayed (0 when
    recording is off or the entry has no intact sidecar).
    """
    recorder = get_recorder()
    if not recorder.enabled:
        return 0
    try:
        data = Path(sidecar_path).read_bytes()
    except OSError:
        return 0
    if not _whole_session(data):
        return 0
    try:
        target = recorder.session_path(job_identity(job))
    except AttributeError:
        return 0  # synthetic job: nothing to replay into (see above)
    _atomic_write_bytes(target, data)
    recorder.metrics.count("telemetry.sessions.replayed")
    return len(data)


def _whole_session(data: bytes) -> bool:
    """Whether ``data`` is a session file as :meth:`SessionChannel.close`
    writes it: newline-terminated JSON objects, from a
    ``maya.telemetry.session.v1`` manifest to the ``end`` record."""
    if not data.endswith(b"\n"):
        return False
    try:
        records = [json.loads(line) for line in data.splitlines()]
    except ValueError:
        return False
    return (
        all(isinstance(record, dict) for record in records)
        and records[0].get("type") == "manifest"
        and records[0].get("schema") == MANIFEST_SCHEMA
        and records[-1].get("type") == "end"
    )


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
