"""Pipeline micro-benchmark (``python -m repro.bench``).

Times the dominant stages of the attack pipeline — trace collection
(the reference: every session alone through the Figure-2 interval loop;
the execution engine in-process at ``workers=1`` and fanned out over
worker processes; and replayed from the content-addressed cache),
featurization, and MLP training — plus lock-step batching of dynamic
(``maya_gs``) rows against one-row calls, and writes the numbers to
``BENCH_pipeline.json``.

The benchmark is also a correctness check: the parallel, batched,
profiled and cache-replayed traces are compared bit-for-bit against the
reference on every run, the batched dynamic rows against their one-row
calls, and the batch-collected traces must reproduce the identical
attack outcome.  A speedup that comes at the
price of changed results fails loudly rather than silently.  Every engine
leg pins its worker count, so an ambient ``REPRO_WORKERS`` cannot
reroute the legs it is measured against.  Host wall-clock reads here
measure *our* runtime, never the simulation (this module is a sanctioned
MAYA002 timing site).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from .. import telemetry as _telemetry
from ..attacks.mlp import MLPConfig
from ..attacks.pipeline import (
    AttackScenario,
    sample_runs,
    scenario_jobs,
    simulate_runs,
    train_and_evaluate,
)
from ..defenses.designs import DefenseFactory
from ..exec import TraceCache, record_run, resolve_workers
from ..exec.batch import build_fleet, execute_jobs_batched, simulate
from ..machine import SYS1, Trace
from ..telemetry import MetricsRegistry
from ..telemetry import profile as _profile
from ..telemetry.export import SPEEDUP_FLOORS

__all__ = ["DEFAULT_OUT", "SCHEMA", "bench_scenario", "run_bench", "store_bench"]

DEFAULT_OUT = "BENCH_pipeline.json"
SCHEMA = "maya.bench.pipeline.v8"

#: Profiler overhead gate (``--check``): the profiled ``workers=1`` leg
#: must stay within the same 10% budget + absolute slack the CI telemetry
#: overhead gate allows over the unprofiled ``workers=1`` leg, so
#: ``REPRO_PROFILE=1`` is safe to leave on in production runs.  The slack
#: absorbs timer noise on short smoke legs.
PROFILE_CHECK_BUDGET = 0.10
PROFILE_CHECK_SLACK_S = 1.0

#: Sessions the store micro-bench writes and reads back (the throughput
#: leg), and the bulk-call chunk it feeds ``put_many``/``get_many``.
STORE_BENCH_ENTRIES = 10_000
STORE_BENCH_CHUNK = 256

#: Sessions in the packed-vs-per-session replay leg (one lock-step batch
#: group of realistic smoke-bench size: 8 s at 1 ms ticks).
STORE_BENCH_GROUP = 64

#: Fleet sizes of the dynamic-batching leg.
DYNAMIC_BENCH_ROWS = (16, 32)


def bench_scenario(smoke: bool = True, seed: int = 7) -> AttackScenario:
    """The benchmark workload: a small but end-to-end attack scenario."""
    if smoke:
        return AttackScenario(
            name="bench-smoke",
            spec=SYS1,
            class_workloads=("volrend", "water_nsquared"),
            defense="baseline",
            runs_per_class=8,
            duration_s=8.0,
            segment_duration_s=4.0,
            segment_stride_s=2.0,
            mlp=MLPConfig(hidden_sizes=(32,), max_epochs=12),
            seed=seed,
        )
    return AttackScenario(
        name="bench-full",
        spec=SYS1,
        class_workloads=("volrend", "water_nsquared", "raytrace", "vips"),
        defense="baseline",
        runs_per_class=12,
        duration_s=12.0,
        segment_duration_s=6.0,
        segment_stride_s=2.0,
        mlp=MLPConfig(hidden_sizes=(64,), max_epochs=20),
        seed=seed,
    )


class _StoreJob:
    """Synthetic content-addressed job for the store micro-bench.

    The store only consults ``key()``, so the micro-bench can drive it
    with thousands of cheap synthetic addresses instead of simulating
    thousands of sessions.
    """

    __slots__ = ("_key",)

    def __init__(self, tag: str, index: int) -> None:
        self._key = hashlib.sha256(
            f"store-bench:{tag}:{index}".encode()
        ).hexdigest()

    def key(self) -> str:
        return self._key


def _store_trace(n_ticks: int, n_intervals: int, fill: float) -> Trace:
    return Trace(
        workload="volrend",
        platform="sys1",
        defense="maya",
        tick_s=0.001,
        interval_s=0.02,
        power_w=np.full(n_ticks, fill),
        measured_w=np.full(n_intervals, fill),
        target_w=np.full(n_intervals, fill + 1.0),
        settings=np.ones((n_intervals, 3)),
        completed_at_s=float("nan"),
        temperature_c=np.empty(0),
    )


def store_bench(
    root: "str | Path",
    n_entries: int = STORE_BENCH_ENTRIES,
    chunk: int = STORE_BENCH_CHUNK,
    group: int = STORE_BENCH_GROUP,
) -> dict:
    """Micro-benchmark the sharded trace store; returns its figures.

    Three legs, all against a store rooted under ``root``:

    * **throughput** — ``put_many``/``get_many`` of ``n_entries`` tiny
      sessions in ``chunk``-sized bulk calls;
    * **eviction** — the size bound is halved and one more put must trim
      the store from journaled stats alone (``tree_scans`` stays 0 — the
      journal, not a directory rescan, drives eviction);
    * **packed replay** — one ``group``-sized lock-step batch of
      smoke-bench-sized sessions read back from one group pack vs from
      ``group`` one-session packs written by one ``put`` per job (best
      of 3 each).

    Like the pipeline phases, the wall-clock reads here time *our*
    runtime, never the simulation (a sanctioned MAYA002 site).
    """
    root = Path(root)
    store = TraceCache(root / "store-bench", max_bytes=10**12)
    jobs = [_StoreJob("throughput", index) for index in range(n_entries)]
    tiny = _store_trace(32, 4, 20.0)

    start = time.perf_counter()
    for offset in range(0, n_entries, chunk):
        batch = jobs[offset:offset + chunk]
        store.put_many(batch, [tiny] * len(batch))
    put_s = time.perf_counter() - start

    start = time.perf_counter()
    hit = 0
    for offset in range(0, n_entries, chunk):
        results = store.get_many(jobs[offset:offset + chunk])
        hit += sum(1 for trace in results if trace is not None)
    get_s = time.perf_counter() - start

    populated = store.stats()
    store.max_bytes = max(populated["total_bytes"] // 2, 1)
    start = time.perf_counter()
    store.put(_StoreJob("evict-trigger", 0), tiny)
    evict_s = time.perf_counter() - start
    trimmed = store.stats()

    group_jobs = [_StoreJob("group", index) for index in range(group)]
    group_traces = [
        _store_trace(8000, 400, 20.0 + index) for index in range(group)
    ]
    packed_store = TraceCache(root / "store-bench-packed", max_bytes=10**12)
    packed_store.put_many(group_jobs, group_traces)
    single_store = TraceCache(root / "store-bench-single", max_bytes=10**12)
    for job, trace in zip(group_jobs, group_traces):
        single_store.put(job, trace)

    def _best_read(handle: TraceCache) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            results = handle.get_many(group_jobs)
            best = min(best, time.perf_counter() - start)
            if any(trace is None for trace in results):
                raise AssertionError("store micro-bench replay missed")
        return best

    packed_read_s = _best_read(packed_store)
    single_read_s = _best_read(single_store)

    return {
        "entries": int(n_entries),
        "chunk": int(chunk),
        "put_s": put_s,
        "get_s": get_s,
        "put_per_s": n_entries / max(put_s, 1e-9),
        "get_per_s": n_entries / max(get_s, 1e-9),
        "get_hits": int(hit),
        "evict_s": evict_s,
        "evictions": int(store.evictions),
        "entries_after_evict": int(trimmed["entries"]),
        "tree_scans": int(trimmed["tree_scans"]),
        "group_sessions": int(group),
        "packed_read_s": packed_read_s,
        "single_read_s": single_read_s,
        "packed_read_speedup": single_read_s / max(packed_read_s, 1e-9),
    }


def dynamic_bench(scenario: AttackScenario, factory: DefenseFactory) -> dict:
    """Lock-step batching of dynamic rows: one call against one-row calls.

    For each size in :data:`DYNAMIC_BENCH_ROWS`, fixed-duration
    ``maya_gs`` sessions of the scenario's workloads run once as one
    lock-step call and once as one one-row call each.  Every row decides
    every interval, so the ratio is what batching the per-interval loop
    buys.  ``matches`` reports whether every batched row equals its
    one-row trace bit for bit.
    """
    factory.create("maya_gs")
    legs: dict = {}
    matches = True
    for n_rows in DYNAMIC_BENCH_ROWS:
        fleet = dataclasses.replace(
            scenario,
            name=f"{scenario.name}-dynamic",
            defense="maya_gs",
            runs_per_class=n_rows // len(scenario.class_workloads),
        )
        jobs = scenario_jobs(fleet, factory)
        start = time.perf_counter()
        batched = execute_jobs_batched(jobs, factory)
        batched_s = time.perf_counter() - start
        start = time.perf_counter()
        alone = [execute_jobs_batched([job], factory)[0] for job in jobs]
        one_row_s = time.perf_counter() - start
        matches = matches and all(a.equals(b) for a, b in zip(batched, alone))
        legs[str(len(jobs))] = {
            "batched_s": batched_s,
            "one_row_s": one_row_s,
            "speedup": one_row_s / max(batched_s, 1e-9),
        }
    batched_s = sum(leg["batched_s"] for leg in legs.values())
    one_row_s = sum(leg["one_row_s"] for leg in legs.values())
    return {
        "rows": legs,
        "batched_s": batched_s,
        "one_row_s": one_row_s,
        "speedup": one_row_s / max(batched_s, 1e-9),
        "matches": matches,
    }


def _reference_runs(scenario: AttackScenario, factory: DefenseFactory) -> list:
    """The reference: every job alone through the Figure-2 interval loop.

    Each job is a one-row kernel call whose defense decides every interval,
    also a constant-settings one that the engine fast-forwards instead (the
    two record the same bits).  So the batched and parallel floors time the
    engine against the per-interval loop, never the kernel against itself.
    Reshaped into the ``classes x runs`` nesting of :func:`simulate_runs`.
    """
    traces = []
    for job in scenario_jobs(scenario, factory):
        (row,) = build_fleet([job], factory)
        row.defense.constant_settings = False
        traces.extend(simulate([row]))
    per_class = scenario.runs_per_class
    return [
        traces[label * per_class:(label + 1) * per_class]
        for label in range(len(scenario.class_workloads))
    ]


def _traces_equal(serial: list, other: list) -> bool:
    return len(serial) == len(other) and all(
        len(a) == len(b) and all(x.equals(y) for x, y in zip(a, b))
        for a, b in zip(serial, other)
    )


def run_bench(
    out_path: "str | Path" = DEFAULT_OUT,
    smoke: bool = False,
    workers: "int | None" = None,
    seed: int = 7,
    scenario: AttackScenario | None = None,
    factory: DefenseFactory | None = None,
    check: bool = False,
    cache_dir: "str | Path | None" = None,
) -> dict:
    """Run the benchmark, write ``out_path``, and return the report dict.

    ``cache_dir`` roots the cached-replay leg and the store micro-bench
    in a persistent directory (so e.g. CI can run ``--cache stats``
    against it afterwards) instead of a temporary one.
    """
    if scenario is None:
        scenario = bench_scenario(smoke=smoke, seed=seed)
    if factory is None:
        factory = DefenseFactory(scenario.spec, seed=scenario.seed)
    if workers is None:
        workers = resolve_workers()
        if workers <= 1:
            workers = 4
    # Build the defense design (and its one-off sysid cost) outside the
    # timed region so every timed stage sees a warm factory.
    factory.create(scenario.defense)

    # Phase timings flow through a telemetry metrics registry — the
    # ``timings`` block of BENCH_pipeline.json is a rendered view of these
    # gauges, not a private dict (and they are mirrored into the ambient
    # recorder when ``REPRO_TELEMETRY`` is on).
    registry = MetricsRegistry()

    def _timed(phase: str, fn):
        start = time.perf_counter()
        result = fn()
        registry.gauge(f"bench.{phase}", time.perf_counter() - start)
        return result

    serial_runs = _timed(
        "collect_serial_s", lambda: _reference_runs(scenario, factory)
    )

    # The engine's one path, twice: lock-step chunks in this process, then
    # the same chunks fanned out over the worker pool.
    batched_runs = _timed(
        "collect_batched_s",
        lambda: simulate_runs(scenario, factory, workers=1, cache=False),
    )
    batched_matches = _traces_equal(serial_runs, batched_runs)

    parallel_runs = _timed(
        "collect_parallel_s",
        lambda: simulate_runs(scenario, factory, workers=workers, cache=False),
    )
    parallel_matches = _traces_equal(serial_runs, parallel_runs)

    with ExitStack() as stack:
        if cache_dir is None:
            bench_root = Path(stack.enter_context(
                tempfile.TemporaryDirectory(prefix="maya-bench-cache-")
            ))
        else:
            bench_root = Path(cache_dir)
            bench_root.mkdir(parents=True, exist_ok=True)
        cache = TraceCache(root=bench_root / "replay")
        simulate_runs(scenario, factory, workers=1, cache=cache)
        cached_runs = _timed(
            "collect_cached_s",
            lambda: simulate_runs(scenario, factory, workers=1, cache=cache),
        )
        cache_hits = cache.hits
        cached_matches = _traces_equal(serial_runs, cached_runs)

        store = _timed("store_bench_s", lambda: store_bench(bench_root))

        # Profiled leg: the workers=1 collection re-run with a span profiler
        # injected (its own instance, rooted in the bench dir, independent
        # of REPRO_PROFILE).  Two oracles: traces stay bit-identical with
        # spans on, and the wall-clock overhead stays under the same
        # budget+slack gate the telemetry overhead check uses.
        previous_profiler = _profile.get_profiler()
        _profile.set_profiler(_profile.SpanProfiler(root=bench_root / "profile"))
        try:
            profiled_runs = _timed(
                "collect_profiled_s",
                lambda: simulate_runs(scenario, factory, workers=1, cache=False),
            )
        finally:
            _profile.set_profiler(previous_profiler)
        profiled_matches = _traces_equal(serial_runs, profiled_runs)

    # Kept out of the timings block: the telemetry overhead gate sums that
    # block, and recording a dynamic row costs per interval by design.
    dynamic = dynamic_bench(scenario, factory)

    sampled = _timed("featurize_s", lambda: sample_runs(scenario, serial_runs))
    outcome = _timed("train_s", lambda: train_and_evaluate(scenario, sampled))

    timings = {
        name.removeprefix("bench."): value
        for name, value in registry.render()["gauges"].items()
    }

    # The downstream pipeline is a deterministic function of the traces, so
    # batch-collected traces must yield the *identical* attack outcome.
    batched_outcome = train_and_evaluate(scenario, sample_runs(scenario, batched_runs))
    outcome_matches = bool(
        batched_outcome.average_accuracy == outcome.average_accuracy
        and (batched_outcome.result.matrix == outcome.result.matrix).all()
    )

    profile_overhead_pct = (
        timings["collect_profiled_s"] / max(timings["collect_batched_s"], 1e-9) - 1.0
    ) * 100.0
    # A gauge, not a timing: registered after the timings block is built so
    # the overhead CLI keeps summing seconds only.
    registry.gauge("bench.profile_overhead_pct", profile_overhead_pct)

    speedup = timings["collect_serial_s"] / max(timings["collect_parallel_s"], 1e-9)
    batched_speedup = timings["collect_serial_s"] / max(timings["collect_batched_s"], 1e-9)
    cache_speedup = timings["collect_serial_s"] / max(timings["collect_cached_s"], 1e-9)
    cpu_count = os.cpu_count() or 1
    report = {
        "schema": SCHEMA,
        "scenario": scenario.name,
        "smoke": bool(smoke),
        "n_sessions": len(scenario.class_workloads) * scenario.runs_per_class,
        "session_duration_s": scenario.duration_s,
        "workers": int(workers),
        "cpu_count": cpu_count,
        "timings": timings,
        "metrics": registry.render(),
        "parallel_speedup": speedup,
        "batched_speedup": batched_speedup,
        "cache_speedup": cache_speedup,
        "dynamic_batched_speedup": dynamic["speedup"],
        "dynamic": dynamic,
        "cache_hits": int(cache_hits),
        "store": store,
        "parallel_matches_serial": bool(parallel_matches),
        "batched_matches_serial": bool(batched_matches),
        "batched_outcome_matches_serial": outcome_matches,
        "cached_matches_serial": bool(cached_matches),
        "profiled_matches_serial": bool(profiled_matches),
        "profile_overhead_pct": profile_overhead_pct,
        "attack_accuracy": outcome.average_accuracy,
    }
    out_path = Path(out_path)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    # Bind the report to its inputs in the run registry (no-op unless
    # REPRO_REGISTRY is on): job keys + code salt + git SHA + artifact
    # digests make the numbers reproducible-or-diffable by id.
    record_run(
        kind="bench",
        name=scenario.name,
        jobs=scenario_jobs(scenario, factory),
        artifacts=[out_path],
        results={
            "attack_accuracy": outcome.average_accuracy,
            "parallel_speedup": speedup,
            "batched_speedup": batched_speedup,
            "cache_speedup": cache_speedup,
            "dynamic_batched_speedup": dynamic["speedup"],
            "store_put_per_s": store["put_per_s"],
            "store_get_per_s": store["get_per_s"],
            "packed_read_speedup": store["packed_read_speedup"],
        },
    )

    # Mirror the phase gauges into the ambient recorder so a telemetry-on
    # run's metrics.json includes them alongside the engine counters.
    for name, value in registry.render()["gauges"].items():
        _telemetry.gauge(name, value)
    _telemetry.write_metrics()

    if not parallel_matches:
        raise AssertionError("parallel traces differ from serial traces")
    # Bit-identity is the always-on oracle, --check or not: a trace that
    # differs from the reference is a wrong answer, however fast it came.
    if not batched_matches:
        raise AssertionError("batched traces differ from serial traces")
    if not dynamic["matches"]:
        raise AssertionError("batched dynamic rows differ from their one-row calls")
    if not outcome_matches:
        raise AssertionError("batch-collected traces changed the attack outcome")
    if not cached_matches:
        raise AssertionError("cached traces differ from serial traces")
    if not profiled_matches:
        raise AssertionError("profiled traces differ from serial traces")
    # Store invariants (also unconditional — correctness, not speed): every
    # session written must read back, and eviction must run from journaled
    # stats alone, never a full-tree rescan.
    if store["get_hits"] < store["entries"]:
        raise AssertionError(
            f"store micro-bench read back {store['get_hits']}/"
            f"{store['entries']} entries"
        )
    if store["tree_scans"] != 0:
        raise AssertionError(
            f"store micro-bench took {store['tree_scans']} full-tree "
            "scans; eviction must run from the journal"
        )
    if check:
        if cache_hits < report["n_sessions"]:
            raise AssertionError(
                f"cache replay hit {cache_hits}/{report['n_sessions']} sessions"
            )
        # One table of floors (shared with ``--history``).  The parallel
        # floor only makes sense when the host can actually run workers
        # side by side; single-core CI still checks determinism.
        measured = {
            "parallel_speedup": speedup,
            "batched_speedup": batched_speedup,
            "dynamic_batched_speedup": dynamic["speedup"],
            "packed_read_speedup": store["packed_read_speedup"],
        }
        if cpu_count < 2:
            del measured["parallel_speedup"]
        for name, value in measured.items():
            if value < SPEEDUP_FLOORS[name]:
                raise AssertionError(
                    f"{name} {value:.2f}x below its {SPEEDUP_FLOORS[name]}x floor"
                )
        # Span profiling must stay cheap enough to leave on in CI: same
        # 10% + slack budget the telemetry overhead gate uses.
        profile_budget_s = (
            timings["collect_batched_s"] * (1.0 + PROFILE_CHECK_BUDGET)
            + PROFILE_CHECK_SLACK_S
        )
        if timings["collect_profiled_s"] > profile_budget_s:
            raise AssertionError(
                f"profiled collection took {timings['collect_profiled_s']:.2f}s, "
                f"over the {profile_budget_s:.2f}s budget "
                f"({PROFILE_CHECK_BUDGET:.0%} + {PROFILE_CHECK_SLACK_S:g}s slack "
                f"over the {timings['collect_batched_s']:.2f}s workers=1 baseline)"
            )
    return report
