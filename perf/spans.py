"""In-memory span tracing of the program's layers, from outside the program.

A :class:`Tracer` records one span (name, start, end, parent) per call of
each wrapped target.  :func:`install` wraps a target by replacing every
attribute of a loaded ``repro`` module or class that *is* the original
object, so call sites that imported the name (``from ..exec import
run_sessions``) are traced as well as the defining module.  A target that
no longer exists is reported ``not_measured`` instead of failing the run.

Self time is a span's duration minus the part of it that its child spans
cover.  The lock-step kernel rows come from the program's own span profiler
(``REPRO_PROFILE=1``); they break ``exec.lockstep`` down and are never added
on top of it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOT_MEASURED = "not_measured"

#: Spans whose returned traces are digested, when no enclosing span is one.
SESSION_SOURCES = ("exec.run_sessions", "core.run_session")


def _sessions(tracer: "Tracer", name: str, result) -> None:
    tracer.add(f"{name}.sessions", len(result))


def _lockstep(tracer: "Tracer", name: str, result) -> None:
    _sessions(tracer, name, result)
    tracer.add("exec.sim_s", sum(trace.duration_s for trace in result))


def _lookup(tracer: "Tracer", name: str, result) -> None:
    tracer.add("exec.cache.requested", len(result))
    tracer.add("exec.cache.found", sum(trace is not None for trace in result))


@dataclass(frozen=True)
class Target:
    """One traced callable: span name, defining module, qualified name."""

    name: str
    module: str
    qualname: str
    #: Called with ``(tracer, name, result)`` after each call returns.
    observe: object = None


TARGETS = (
    Target("control.identify_plant", "repro.control.sysid", "identify_plant"),
    Target("control.design_controller", "repro.control.synthesis", "design_controller"),
    Target("exec.run_sessions", "repro.exec.engine", "run_sessions", _sessions),
    Target("exec.lockstep", "repro.exec.batch", "execute_jobs_batched", _lockstep),
    Target("core.run_session", "repro.core.runtime", "run_session"),
    Target("exec.cache.get_many", "repro.exec.cache", "TraceCache.get_many", _lookup),
    Target("exec.cache.put", "repro.exec.cache", "TraceCache.put"),
    Target("exec.cache.put_many", "repro.exec.cache", "TraceCache.put_many"),
    Target("attacks.sample_runs", "repro.attacks.pipeline", "sample_runs"),
    Target("attacks.train_and_evaluate", "repro.attacks.pipeline", "train_and_evaluate"),
    Target("attacks.mlp.fit", "repro.attacks.mlp", "MLPClassifier.fit"),
    Target("attacks.mlp.predict", "repro.attacks.mlp", "MLPClassifier.predict"),
    Target("analysis.pelt", "repro.analysis.changepoint", "pelt"),
)

#: Spans of the program's own profiler, by the name they are reported under.
PROFILER_SPANS = {
    "exec.kernel.decide": "kernel.decide",
    "exec.kernel.power": "kernel.power",
    "exec.kernel.measure": "kernel.measure",
    "exec.kernel.fast_forward": "kernel.fast_forward",
    "exec.fleet.build": "fleet.build",
}

#: The span around the timed figure call.
FIGURE_SPAN = "experiments.driver"

#: Layers that run in set-up, before the figure call and outside its spans.
SETUP_LAYERS = ("control.identify_plant", "control.design_controller")

_SETUP = "setup_s on every workload"
_LOCKSTEP = "wall_norm_s on fig06_cold; none on fig06_warm"
_KERNEL = "wall_norm_s on fig06_cold (part of exec.lockstep)"
_SERIAL = "wall_norm_s on fig14_completion and fig11_changepoint"
_ENGINE = "wall_norm_s on every engine workload"
_COLD = "wall_norm_s on fig06_cold"
_WARM = "wall_norm_s on fig06_warm"
_ATTACK = "wall_norm_s on fig06_warm and fig06_cold"
_PELT = "wall_norm_s on fig11_changepoint only"

#: Per-layer metrics: (name, unit, better, the end-to-end metric and
#: workloads a change to this layer should move).
LAYER_METRICS = (
    ("control.identify_plant.self_s", "s", "lower", _SETUP),
    ("control.identify_plant.calls", "count", "lower", _SETUP),
    ("control.design_controller.self_s", "s", "lower", _SETUP),
    ("control.design_controller.calls", "count", "lower", _SETUP),
    ("exec.lockstep.self_s", "s", "lower", _LOCKSTEP),
    ("exec.lockstep.calls", "count", "lower", _LOCKSTEP),
    ("exec.lockstep.sessions", "count", "lower", _LOCKSTEP),
    ("exec.kernel.decide.self_s", "s", "lower", _KERNEL),
    ("exec.kernel.decide.calls", "count", "lower", _KERNEL),
    ("exec.kernel.power.self_s", "s", "lower", _KERNEL),
    ("exec.kernel.measure.self_s", "s", "lower", _KERNEL),
    ("exec.kernel.fast_forward.self_s", "s", "lower", _KERNEL),
    ("exec.fleet.build.self_s", "s", "lower", _KERNEL),
    ("exec.sim_s", "s", "lower", _LOCKSTEP),
    ("exec.sim_s_per_s", "s/s", "higher", _COLD),
    ("core.run_session.self_s", "s", "lower", _SERIAL),
    ("core.run_session.calls", "count", "lower", _SERIAL),
    ("exec.run_sessions.self_s", "s", "lower", _ENGINE),
    ("exec.run_sessions.calls", "count", "lower", _ENGINE),
    ("exec.run_sessions.sessions", "count", "lower", _ENGINE),
    ("exec.cache.put_many.self_s", "s", "lower", _COLD),
    ("exec.cache.put.self_s", "s", "lower", _COLD),
    ("exec.cache.store_mb", "MB", "lower", _COLD),
    ("exec.cache.get_many.self_s", "s", "lower", _WARM),
    ("exec.cache.get_many.calls", "count", "lower", _WARM),
    ("exec.cache.hit_ratio", "ratio", "higher", _WARM),
    ("attacks.sample_runs.self_s", "s", "lower", _ATTACK),
    ("attacks.train_and_evaluate.self_s", "s", "lower", _ATTACK),
    ("attacks.mlp.fit.self_s", "s", "lower", _ATTACK),
    ("attacks.mlp.fit.calls", "count", "lower", _ATTACK),
    ("attacks.mlp.predict.self_s", "s", "lower", _ATTACK),
    ("analysis.pelt.self_s", "s", "lower", _PELT),
    ("analysis.pelt.calls", "count", "lower", _PELT),
    ("experiments.driver.self_s", "s", "lower", "wall_norm_s on every workload"),
    ("trace.wall_s", "s", "lower", "host seconds of the traced figure call"),
    ("trace.coverage", "ratio", "higher", "share of the traced figure call under a layer span"),
    ("trace.overhead_pct", "%", "lower", "traced call against wall_norm_s, at reference speed"),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        #: Closed and open spans: ``[name, parent index or None, start, end]``.
        self.spans: list = []
        self.counters: dict = {}
        #: Traces returned by the outermost session sources, digested only
        #: after the run so that hashing is not charged to any span.
        self.sessions: list = []
        self._stack: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        # An exception can unwind past spans that never closed themselves.
        while self._stack and self._stack.pop() != index:
            pass

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def inside(self, names) -> bool:
        return any(self.spans[index][0] in names for index in self._stack)

    def records(self) -> list:
        """Closed spans as ``(id, name, parent id, start, end)`` tuples."""
        return [
            (index, name, parent, start, end)
            for index, (name, parent, start, end) in enumerate(self.spans)
            if end is not None
        ]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, parent, start, end in self.records():
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "parent": parent, "start": start, "end": end}
                ) + "\n")


def self_times(records) -> dict:
    """Per name: ``{"self_s", "total_s", "calls"}`` from span records.

    ``records`` are ``(id, name, parent id, start, end)``; a span's self
    time is its duration minus the union of its children's intervals.
    """
    children: dict = {}
    for span_id, _, parent, start, end in records:
        children.setdefault(parent, []).append((start, end))
    out: dict = {}
    for span_id, name, _, start, end in records:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += (end - start) - covered
        row["total_s"] += end - start
        row["calls"] += 1
    return out


def _wrap(tracer: Tracer, target: Target, original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = tracer.open(target.name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if target.observe is not None:
            target.observe(tracer, target.name, result)
        if target.name in SESSION_SOURCES and not tracer.inside(SESSION_SOURCES):
            tracer.sessions.extend(result if isinstance(result, list) else [result])
        return result

    return traced


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def install(tracer: Tracer, targets=TARGETS, package: str = "repro"):
    """Wrap every reachable target; return ``(undo, missing target names)``.

    Every module attribute, and every attribute of a class defined in the
    package, that is the original object is replaced.  Call ``undo()`` to
    restore them.
    """
    patches: list = []
    missing: list = []
    for target in targets:
        try:
            original = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            missing.append(target.name)
            continue
        wrapped = _wrap(tracer, target, original)
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        owners = list(modules)
        for module in modules:
            owners.extend(
                value for value in vars(module).values()
                if isinstance(value, type)
                and getattr(value, "__module__", "").startswith(package)
            )
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapped)
                    patches.append((owner, attr, original))

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo, missing


def read_profile(path: Path) -> list:
    """The program profiler's spans as ``(id, name, parent id, start, end)``."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") == "span":
                start = record["t0_s"]
                records.append(
                    (record["id"], record["name"], record["parent"] or None,
                     start, start + record["dur_s"])
                )
    return records


def layer_metrics(tracer: Tracer, missing, profile_records, store_mb: float) -> dict:
    """Self time and calls of every layer, and every derived per-layer metric.

    The result holds every name of :data:`LAYER_METRICS` except
    ``trace.overhead_pct``, which needs the untraced calls.
    ``profile_records`` is ``None`` when the program has no profiler; its
    rows then read ``not_measured``.
    """
    rows = self_times(tracer.records())
    values: dict = {}
    for target in TARGETS:
        row = rows.get(target.name, {"self_s": 0.0, "calls": 0})
        gone = target.name in missing
        values[f"{target.name}.self_s"] = NOT_MEASURED if gone else row["self_s"]
        values[f"{target.name}.calls"] = NOT_MEASURED if gone else row["calls"]
    for name in ("exec.lockstep", "exec.run_sessions"):
        values[f"{name}.sessions"] = (
            NOT_MEASURED if name in missing else tracer.counters.get(f"{name}.sessions", 0)
        )
    kernel_rows = self_times(profile_records) if profile_records is not None else None
    for name, span_name in PROFILER_SPANS.items():
        if kernel_rows is None:
            values[f"{name}.self_s"] = values[f"{name}.calls"] = NOT_MEASURED
        else:
            row = kernel_rows.get(span_name, {"self_s": 0.0, "calls": 0})
            values[f"{name}.self_s"] = row["self_s"]
            values[f"{name}.calls"] = row["calls"]

    lockstep = rows.get("exec.lockstep", {}).get("total_s", 0.0)
    sim_s = tracer.counters.get("exec.sim_s", 0.0)
    values["exec.sim_s"] = sim_s
    values["exec.sim_s_per_s"] = sim_s / lockstep if lockstep > 0 else 0.0
    requested = tracer.counters.get("exec.cache.requested", 0)
    values["exec.cache.hit_ratio"] = (
        tracer.counters.get("exec.cache.found", 0) / requested if requested else 0.0
    )
    values["exec.cache.store_mb"] = store_mb

    call = rows.get(FIGURE_SPAN, {"self_s": 0.0, "total_s": 0.0})
    values[f"{FIGURE_SPAN}.self_s"] = call["self_s"]
    values["trace.wall_s"] = call["total_s"]
    values["trace.coverage"] = (
        1.0 - call["self_s"] / call["total_s"] if call["total_s"] > 0 else 0.0
    )
    return values


def share(values: dict, layer: str):
    """A layer's self time as a share of ``trace.wall_s``.

    ``"setup"`` for the set-up layers, which run outside the figure call.
    """
    self_s, wall = values[f"{layer}.self_s"], values["trace.wall_s"]
    if layer in SETUP_LAYERS:
        return "setup"
    return self_s / wall if self_s != NOT_MEASURED and wall else NOT_MEASURED


def layer_table(values: dict) -> dict:
    """Per traced layer: self seconds, their share of ``trace.wall_s``, calls."""
    return {
        layer: {
            "self_s": values[f"{layer}.self_s"],
            "share": share(values, layer),
            "calls": values[f"{layer}.calls"],
        }
        for layer in [target.name for target in TARGETS] + list(PROFILER_SPANS)
    }


def trace_digest(trace) -> str:
    """16-hex sha256 over a trace's labels and arrays, as float64 bytes."""
    digest = hashlib.sha256()
    for label in (trace.workload, trace.platform, trace.defense):
        digest.update(str(label).encode() + b"\x1f")
    scalars = [trace.tick_s, trace.interval_s, trace.completed_at_s]
    for array in (scalars, trace.power_w, trace.measured_w, trace.target_w,
                  trace.settings, trace.temperature_c):
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes() + b"\x1e")
    return digest.hexdigest()[:16]
