"""Multiprocess stress tests for the sharded trace store.

N worker processes hammer one store with interleaved ``put``/``get``/
eviction while sharing a single append-only journal.  The store's
contract under concurrency:

* **no torn reads** — a reader sees a complete, bit-valid trace or a
  miss, never a partial file or an exception;
* **no lost entries** — with a size bound large enough that nothing is
  evicted, every session any worker wrote is readable afterwards;
* **stats within tolerance** — a fresh handle's journal-replayed totals
  match a ground-truth walk of the shard tree.
"""

import hashlib
import multiprocessing

import numpy as np

from repro.exec import TraceCache
from repro.machine import Trace

N_PROCS = 4
PUTS_PER_PROC = 24


class StressJob:
    """Content-addressed stand-in: the store only consults ``key()``."""

    def __init__(self, worker: int, index: int) -> None:
        self._key = hashlib.sha256(
            f"stress:{worker}:{index}".encode()
        ).hexdigest()

    def key(self) -> str:
        return self._key


def stress_trace(worker: int, index: int) -> Trace:
    rng = np.random.default_rng(worker * 1000 + index)
    n_intervals = 6
    return Trace(
        workload="volrend",
        platform="sys1",
        defense="maya",
        tick_s=0.001,
        interval_s=0.02,
        power_w=rng.normal(20.0, 1.0, 20 * n_intervals),
        measured_w=rng.normal(20.0, 1.0, n_intervals),
        target_w=rng.normal(21.0, 1.0, n_intervals),
        settings=rng.normal(1.0, 0.1, (n_intervals, 3)),
        completed_at_s=float("nan"),
        temperature_c=np.empty(0),
    )


def _worker(root, worker: int, max_bytes: int, failures) -> None:
    """Interleave puts with reads of every key any worker may have written.

    Reads race concurrent writers on purpose: a key is either absent
    (miss) or must come back bit-identical to what its writer stored.
    """
    store = TraceCache(root=root, max_bytes=max_bytes)
    try:
        for index in range(PUTS_PER_PROC):
            store.put(StressJob(worker, index), stress_trace(worker, index))
            probe_worker = (worker + index) % N_PROCS
            probe_index = index % PUTS_PER_PROC
            loaded = store.get(StressJob(probe_worker, probe_index))
            if loaded is not None and not loaded.equals(
                stress_trace(probe_worker, probe_index)
            ):
                failures.put((worker, probe_worker, probe_index, "torn read"))
        # One bulk read over this worker's own keys as a final sweep.
        jobs = [StressJob(worker, index) for index in range(PUTS_PER_PROC)]
        for index, loaded in enumerate(store.get_many(jobs)):
            if loaded is not None and not loaded.equals(
                stress_trace(worker, index)
            ):
                failures.put((worker, worker, index, "torn bulk read"))
    except Exception as failure:  # pragma: no cover - surfaced by the test
        failures.put((worker, -1, -1, repr(failure)))


def _run_fleet(root, max_bytes: int):
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    failures = context.Queue()
    procs = [
        context.Process(target=_worker, args=(str(root), worker, max_bytes,
                                              failures))
        for worker in range(N_PROCS)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    reported = []
    while not failures.empty():
        reported.append(failures.get())
    exit_codes = [proc.exitcode for proc in procs]
    return reported, exit_codes


def _tree_bytes(root) -> int:
    total = 0
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "journal.jsonl":
            total += path.stat().st_size
    return total


class TestConcurrentWriters:
    def test_no_lost_entries_and_exact_stats_without_eviction(self, tmp_path):
        reported, exit_codes = _run_fleet(tmp_path, max_bytes=10**12)
        assert exit_codes == [0] * N_PROCS
        assert reported == []
        store = TraceCache(root=tmp_path, max_bytes=10**12)
        jobs = [
            StressJob(worker, index)
            for worker in range(N_PROCS)
            for index in range(PUTS_PER_PROC)
        ]
        loaded = store.get_many(jobs)
        missing = sum(1 for trace in loaded if trace is None)
        assert missing == 0, f"{missing} entries lost under concurrency"
        for trace, job in zip(loaded, jobs):
            worker, index = (int(part) for part in _job_coords(job))
            assert trace.equals(stress_trace(worker, index))
        stats = store.stats()
        assert stats["sessions"] == N_PROCS * PUTS_PER_PROC
        assert stats["tree_scans"] == 0
        # Journal-replayed accounting must agree with the tree exactly —
        # nothing was evicted, so no tolerance is needed.
        assert stats["total_bytes"] == _tree_bytes(tmp_path)

    def test_no_torn_reads_under_concurrent_eviction(self, tmp_path):
        # A bound small enough that workers evict each other's entries
        # constantly; reads must still be all-or-nothing.
        probe = TraceCache(root=tmp_path / "probe")
        probe.put(StressJob(0, 0), stress_trace(0, 0))
        entry_bytes = probe.stats()["total_bytes"]
        max_bytes = entry_bytes * N_PROCS * 3
        reported, exit_codes = _run_fleet(tmp_path / "store", max_bytes)
        assert exit_codes == [0] * N_PROCS
        assert reported == []
        # The surviving store still opens, serves, and accounts within
        # tolerance of the on-disk truth (concurrent evictors may briefly
        # disagree about a victim, so allow slack of a few entries).
        store = TraceCache(root=tmp_path / "store", max_bytes=max_bytes)
        stats = store.stats()
        truth = _tree_bytes(tmp_path / "store")
        assert abs(stats["total_bytes"] - truth) <= 4 * entry_bytes, (
            stats["total_bytes"], truth,
        )
        jobs = [
            StressJob(worker, index)
            for worker in range(N_PROCS)
            for index in range(PUTS_PER_PROC)
        ]
        for job, trace in zip(jobs, store.get_many(jobs)):
            if trace is not None:
                worker, index = (int(part) for part in _job_coords(job))
                assert trace.equals(stress_trace(worker, index))

    def test_same_key_concurrent_writers_are_last_writer_wins(self, tmp_path):
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        failures = context.Queue()
        procs = [
            context.Process(
                target=_same_key_worker, args=(str(tmp_path), failures)
            )
            for _ in range(N_PROCS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0] * N_PROCS
        assert failures.empty()
        store = TraceCache(root=tmp_path, max_bytes=10**12)
        final = store.get(StressJob(0, 0))
        assert final is not None and final.equals(stress_trace(0, 0))


def _same_key_worker(root, failures) -> None:
    store = TraceCache(root=root, max_bytes=10**12)
    try:
        job = StressJob(0, 0)
        want = stress_trace(0, 0)
        for _ in range(10):
            store.put(job, want)
            loaded = store.get(job)
            if loaded is None or not loaded.equals(want):
                failures.put(("same-key", repr(loaded)))
    except Exception as failure:  # pragma: no cover
        failures.put(("same-key", repr(failure)))


def _job_coords(job: StressJob):
    """Recover (worker, index) for a stress job by digest lookup."""
    for worker in range(N_PROCS):
        for index in range(PUTS_PER_PROC):
            if StressJob(worker, index).key() == job.key():
                return (worker, index)
    raise AssertionError("unknown stress job")
