"""Tests for repro.exec.engine (parallel fan-out + determinism guarantee)."""

import concurrent.futures
import multiprocessing
import os
import signal

import pytest

import repro.exec.batch as batch_mod
from repro import telemetry
from repro.exec import SessionJob, TraceCache, batch_key, resolve_workers, run_sessions
from repro.exec.batch import execute_jobs_batched
from repro.exec.engine import _result_or_retry
from repro.machine import SYS1


def batch_jobs(n_runs=2, duration_s=1.0, workloads=("volrend", "water_nsquared")):
    return [
        SessionJob(
            spec=SYS1,
            workload=workload,
            defense="baseline",
            seed=11,
            run_id=("engine-test", workload, run),
            duration_s=duration_s,
        )
        for workload in workloads
        for run in range(n_runs)
    ]


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5
        assert resolve_workers(0) == 5  # 0 = unset, defer to env

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers()


class TestJobTimeoutEnv:
    @pytest.mark.parametrize("value", ["soon", "0", "-1", "nan", "inf"])
    def test_invalid_timeout_env_raises_before_simulating(self, monkeypatch, value):
        """A timeout that is not a positive finite number would retry every
        pooled chunk in-process, simulating it twice."""
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", value)
        with pytest.raises(ValueError, match="REPRO_JOB_TIMEOUT_S"):
            run_sessions(batch_jobs(n_runs=1), workers=2, cache=False)


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        """The tentpole guarantee: worker scheduling never changes results."""
        jobs = batch_jobs()
        serial = run_sessions(jobs, workers=1, cache=False)
        parallel = run_sessions(jobs, workers=4, cache=False)
        assert len(parallel) == len(serial) == len(jobs)
        for a, b in zip(serial, parallel):
            assert a.equals(b)

    def test_results_are_in_job_order(self):
        jobs = batch_jobs(n_runs=1, workloads=("water_nsquared", "volrend"))
        traces = run_sessions(jobs, workers=2, cache=False)
        assert [t.workload for t in traces] == ["water_nsquared", "volrend"]

    def test_serial_repeat_is_bit_identical(self):
        jobs = batch_jobs(n_runs=1)
        first = run_sessions(jobs, workers=1, cache=False)
        second = run_sessions(jobs, workers=1, cache=False)
        for a, b in zip(first, second):
            assert a.equals(b)


class TestCacheIntegration:
    def test_partial_cache_preserves_job_order(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = batch_jobs(n_runs=1)
        # Prime only the second job: the engine must interleave the cached
        # and freshly-simulated traces back into submission order.
        cache.put(jobs[1], jobs[1].execute())
        traces = run_sessions(jobs, workers=1, cache=cache)
        assert [t.workload for t in traces] == ["volrend", "water_nsquared"]
        assert cache.hits == 1

    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = batch_jobs(n_runs=1)
        first = run_sessions(jobs, workers=1, cache=cache)
        assert cache.hits == 0
        second = run_sessions(jobs, workers=1, cache=cache)
        assert cache.hits == len(jobs)
        for a, b in zip(first, second):
            assert a.equals(b)

    def test_cache_false_disables_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        jobs = batch_jobs(n_runs=1, workloads=("volrend",))
        run_sessions(jobs, workers=1, cache=False)
        assert not (tmp_path / "default").exists()
        run_sessions(jobs, workers=1)  # cache=None -> env-gated default
        assert list((tmp_path / "default").rglob("*.npz"))


class _StubFuture:
    def __init__(self, exc):
        self.exc = exc
        self.cancelled = False

    def result(self, timeout=None):
        raise self.exc

    def cancel(self):
        self.cancelled = True


class TestRetry:
    """A chunk whose worker crashes or times out is redone in-process."""

    def test_infrastructure_failure_is_redone_in_process(self):
        chunk = batch_jobs(n_runs=1, duration_s=0.5)
        future = _StubFuture(concurrent.futures.BrokenExecutor("worker died"))
        traces = _result_or_retry(future, chunk, None, timeout_s=1.0)
        assert future.cancelled
        assert len(traces) == len(chunk)
        for job, trace in zip(chunk, traces):
            assert trace.equals(job.execute())

    def test_timeout_is_redone_in_process(self):
        chunk = batch_jobs(n_runs=1, duration_s=0.5)
        future = _StubFuture(concurrent.futures.TimeoutError())
        traces = _result_or_retry(future, chunk, None, timeout_s=0.01)
        assert [t.workload for t in traces] == ["volrend", "water_nsquared"]
        for job, trace in zip(chunk, traces):
            assert trace.equals(job.execute())

    def test_deterministic_job_error_propagates(self):
        chunk = batch_jobs(n_runs=1)
        future = _StubFuture(KeyError("unknown workload"))
        with pytest.raises(KeyError):
            _result_or_retry(future, chunk, None, timeout_s=1.0)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the dying kernel is patched in before the pool forks",
    )
    def test_worker_killed_mid_chunk_is_redone_in_process(self, tmp_path, monkeypatch):
        """A real pool worker dies by SIGKILL after simulating part of its
        chunk; the chunk is redone in-process with identical traces."""
        jobs = batch_jobs(n_runs=2, duration_s=0.5)  # two 2-job chunks
        serial = run_sessions(jobs, workers=1, cache=False)
        parent = os.getpid()
        real_simulate = batch_mod.simulate

        def simulate(rows):
            if os.getpid() != parent and rows[0].machine.workload.name == "volrend":
                real_simulate(rows[:1])
                os.kill(os.getpid(), signal.SIGKILL)
            return real_simulate(rows)

        # Forked workers inherit the patched kernel; the in-process redo
        # runs in the parent, where it is the real one.
        monkeypatch.setattr(batch_mod, "simulate", simulate)
        recorder = telemetry.TelemetryRecorder(root=tmp_path / "telemetry")
        telemetry.set_recorder(recorder)
        try:
            traces = run_sessions(jobs, workers=2, cache=False)
            retried = recorder.metrics.counter_value("exec.jobs.retried")
        finally:
            telemetry.set_recorder(None)
        # The killed chunk is redone; the pool breaks with it, so the other
        # chunk is redone too unless its result arrived first.
        assert retried in (2, 4)
        assert len(traces) == len(serial)
        for got, want in zip(traces, serial):
            assert got.equals(want)


class TestChunkFanOut:
    def test_pool_runs_lock_step_chunks_in_job_order(self, sys1_factory, monkeypatch):
        """workers=2 submits whole lock-step chunks, never single jobs."""
        jobs = [
            SessionJob.for_factory(
                sys1_factory,
                workload=workload,
                defense=defense,
                seed=5,
                run_id=("fan-out", run),
                duration_s=0.5,
            )
            for run, (workload, defense) in enumerate([
                ("volrend", "baseline"),
                ("water_nsquared", "maya_gs"),
                ("volrend", "random_inputs"),
                ("water_nsquared", "baseline"),
                ("volrend", "maya_gs"),
                ("water_nsquared", "noisy_baseline"),
            ])
        ]
        submitted = []
        real_submit = concurrent.futures.ProcessPoolExecutor.submit

        def spy(self, fn, *args, **kwargs):
            submitted.append((fn, list(args[0])))
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", spy)
        traces = run_sessions(jobs, workers=2, factory=sys1_factory, cache=False)

        assert len(submitted) == 2
        for fn, chunk in submitted:
            assert fn is execute_jobs_batched
            assert len(chunk) >= 2
            assert len({batch_key(job) for job in chunk}) == 1
        assert [job for _, chunk in submitted for job in chunk] == jobs
        assert [t.workload for t in traces] == [job.workload for job in jobs]
        for job, trace in zip(jobs, traces):
            assert trace.equals(job.execute(factory=sys1_factory))
