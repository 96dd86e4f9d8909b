"""The one execution path for :class:`SessionJob` specs.

:func:`run_sessions` is the one choke point every experiment and the
attack pipeline route their simulation batches through.  It

1. looks every job up in the content-addressed trace cache;
2. groups the pending jobs by :func:`~repro.exec.batch.batch_key` and
   cuts each group into chunks of
   ``min(DEFAULT_BATCH_SIZE, ceil(len(group) / workers))`` sessions;
3. simulates each chunk lock-step with
   :func:`~repro.exec.batch.execute_jobs_batched` -- a lone pending job
   is a one-row chunk -- in-process at ``workers=1`` or when there is a
   single chunk, otherwise as whole chunks on a
   :class:`~concurrent.futures.ProcessPoolExecutor` whose results are
   collated **strictly in job order**, never in completion order, so the
   output is independent of worker scheduling.  A chunk whose worker
   crashes or times out is redone once in-process (the spawn-keyed RNG
   makes the redo bit-identical).  ``multiprocessing`` and
   ``concurrent.futures`` are imported only when a pool starts, so an
   in-process run never loads them (tested);
4. stores each chunk with one bulk ``put_many``.

Determinism guarantee (tested): ``run_sessions(jobs, workers=n)`` returns
traces that :meth:`~repro.machine.Trace.equals` ``job.execute()`` for
every job and every ``n``.
"""

from __future__ import annotations

import hashlib
import math

from .. import host, telemetry
from ..telemetry import profile
from ..defenses.designs import DefenseFactory
from .batch import DEFAULT_BATCH_SIZE, batch_key, execute_jobs_batched
from .cache import default_cache
from .jobs import SessionJob, register_factory

__all__ = [
    "resolve_workers",
    "run_sessions",
]


def resolve_workers(workers: object = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` > 1 (serial).

    Either source must be a whole number of at least 1.
    """
    if workers is None:
        return host.settings().workers
    return host.positive_int(workers, "workers")


def _job_timeout_s(timeout_s: object) -> float:
    if timeout_s is None:
        return host.settings().job_timeout_s
    return host.positive_float(timeout_s, "timeout_s")


def _chunk_span_key(chunk_jobs):
    """Deterministic 16-hex digest over a chunk's job content addresses."""
    if not profile.enabled():
        return None
    joined = "\x1f".join(job.key() for job in chunk_jobs)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def run_sessions(
    jobs,
    workers: object = None,
    cache: object = None,
    factory: DefenseFactory | None = None,
    timeout_s: object = None,
) -> list:
    """Execute ``jobs`` and return their traces **in job order**.

    * ``workers`` — see :func:`resolve_workers`.
    * ``cache`` — a :class:`TraceCache`, ``None`` (use the env-gated
      default: ``REPRO_CACHE=1`` enables it), or ``False`` to disable
      caching regardless of the environment.
    * ``factory`` — optional in-process :class:`DefenseFactory` matching
      the jobs' declarative description; purely an optimization (avoids
      rebuilding Maya designs in this process and, under fork, in the
      workers).
    * ``timeout_s`` — per-chunk timeout in seconds (default
      ``REPRO_JOB_TIMEOUT_S``); a timed-out or crashed chunk is redone once
      in-process.
    """
    jobs = list(jobs)
    workers = resolve_workers(workers)
    timeout_s = _job_timeout_s(timeout_s)
    if cache is None:
        cache = default_cache()
    elif cache is False:
        cache = None

    telemetry.ops(
        "run.begin",
        jobs=len(jobs),
        workers=workers,
        cached=cache is not None,
    )
    with profile.span("run", key=_chunk_span_key(jobs), jobs=len(jobs)):
        # One bulk lookup for the whole run: a single journal refresh (and
        # a single LRU-touch append) covers every job, and packed group
        # entries are opened once per group rather than once per session.
        if cache is not None:
            with profile.span("cache.lookup", jobs=len(jobs)):
                results = cache.get_many(jobs)
        else:
            results = [None] * len(jobs)
        pending: list = []
        for index, trace in enumerate(results):
            if trace is None:
                pending.append(index)
            else:
                telemetry.ops("job.cached", index=index)

        telemetry.count("exec.jobs.total", len(jobs))
        telemetry.count("exec.jobs.executed", len(pending))
        if pending:
            _execute_chunks(
                jobs, _group_chunks(jobs, pending, workers), results, workers,
                factory, cache, timeout_s,
            )
        telemetry.ops(
            "run.end",
            jobs=len(jobs),
            executed=len(pending),
            hits=len(jobs) - len(pending),
        )
        telemetry.write_metrics()
    return results


def _group_chunks(jobs, pending, workers) -> list:
    """Pending indices as ``[group][chunk] -> [index, ...]``, in job order.

    Jobs are grouped by :func:`batch_key` through an insertion-ordered
    dict, so grouping — like everything else in this layer — is a pure
    function of job order.  Each group is cut into chunks small
    enough that every worker gets one and no larger than
    :data:`DEFAULT_BATCH_SIZE`.
    """
    groups: dict = {}
    for index in pending:
        groups.setdefault(batch_key(jobs[index]), []).append(index)
    chunked = []
    for indices in groups.values():
        size = min(DEFAULT_BATCH_SIZE, math.ceil(len(indices) / workers))
        chunked.append(
            [indices[start:start + size] for start in range(0, len(indices), size)]
        )
    return chunked


def _execute_chunks(jobs, groups, results, workers, factory, cache, timeout_s):
    """Simulate every chunk lock-step; results land at their job's index.

    With more than one worker and more than one chunk, every chunk is
    submitted to a process pool up front and awaited in job order;
    otherwise the chunks run one after another in this process.
    """
    n_chunks = sum(len(chunks) for chunks in groups)
    pool = None
    if workers > 1 and n_chunks > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if factory is not None:
            # Pre-fork memoization: under the fork start method the workers
            # inherit the parent's built designs instead of re-running sysid.
            register_factory(factory)
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        pool = ProcessPoolExecutor(
            max_workers=min(workers, n_chunks),
            mp_context=multiprocessing.get_context(method),
        )
    try:
        futures = iter(
            [
                pool.submit(execute_jobs_batched, [jobs[index] for index in chunk])
                for chunks in groups
                for chunk in chunks
            ]
            if pool is not None
            else ()
        )
        for chunks in groups:
            group_jobs = [jobs[index] for chunk in chunks for index in chunk]
            with profile.span(
                "group", key=_chunk_span_key(group_jobs), sessions=len(group_jobs)
            ):
                for chunk in chunks:
                    chunk_jobs = [jobs[index] for index in chunk]
                    telemetry.ops("batch.group", size=len(chunk), indices=list(chunk))
                    telemetry.observe(
                        "exec.batch.group_size", len(chunk),
                        telemetry.GROUP_SIZE_HIST_EDGES,
                    )
                    with profile.span(
                        "chunk", key=_chunk_span_key(chunk_jobs), sessions=len(chunk)
                    ):
                        if pool is None:
                            traces = execute_jobs_batched(chunk_jobs, factory=factory)
                        else:
                            traces = _result_or_retry(
                                next(futures), chunk_jobs, factory, timeout_s
                            )
                        for index, trace in zip(chunk, traces):
                            results[index] = trace
                        if cache is not None:
                            # One bulk write per chunk: the store packs the
                            # whole chunk into a single group entry.
                            with profile.span("cache.put"):
                                cache.put_many(chunk_jobs, traces)
    finally:
        if pool is not None:
            # Wait for worker teardown: on the happy path every future is
            # done and the join is instant; on an error path cancel_futures
            # stops queued chunks and the join prevents orphaned children
            # racing interpreter shutdown.
            pool.shutdown(wait=True, cancel_futures=True)


def _result_or_retry(future, chunk_jobs: "list[SessionJob]", factory, timeout_s: float) -> list:
    """Await one chunk's traces; on crash or timeout, redo it in-process.

    Only infrastructure failures are retried — a deterministic exception
    raised by a job itself (bad workload name, invalid config) would
    fail identically on retry and propagates immediately.
    """
    from concurrent.futures import BrokenExecutor
    from concurrent.futures import TimeoutError as FutureTimeoutError

    try:
        return future.result(timeout=timeout_s)
    except (BrokenExecutor, FutureTimeoutError, OSError) as failure:
        future.cancel()
        telemetry.ops("chunk.retry", reason=type(failure).__name__, size=len(chunk_jobs))
        telemetry.count("exec.jobs.retried", len(chunk_jobs))
        with profile.span("chunk.retry", reason=type(failure).__name__):
            return execute_jobs_batched(chunk_jobs, factory=factory)
