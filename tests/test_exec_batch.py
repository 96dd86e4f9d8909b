"""Tests for repro.exec.batch: the lock-step kernel behind the engine.

The contract under test is row independence: every trace of a multi-row
lock-step call must be bit-identical (``Trace.equals``) to the one-row
call of its job (``job.execute()``), for every platform, any mix of
workloads/defenses/seeds within a batch, and any chunk size — and traces
it feeds the cache must replay into the identical attack outcome.  The
golden trace digests (``tests/test_golden_traces.py``) pin the absolute
bits.
"""

import numpy as np
import pytest

from repro.attacks.mlp import MLPConfig
from repro.attacks.pipeline import (
    AttackScenario,
    run_attack,
    sample_runs,
    scenario_jobs,
    train_and_evaluate,
)
from repro.exec import (
    SessionJob,
    TraceCache,
    batch_key,
    execute_jobs_batched,
    run_sessions,
)
from repro.machine import SYS1, SYS2, SYS3


def make_job(
    workload="volrend",
    defense="baseline",
    spec=SYS1,
    seed=11,
    run=0,
    duration_s=1.0,
    **kwargs,
):
    return SessionJob(
        spec=spec,
        workload=workload,
        defense=defense,
        seed=seed,
        run_id=("batch-test", workload, defense, run),
        duration_s=duration_s,
        **kwargs,
    )


class TestBatchKey:
    def test_compatible_jobs_share_a_key(self):
        a = make_job(workload="volrend", defense="baseline")
        b = make_job(workload="water_nsquared", defense="random_inputs", seed=3)
        assert batch_key(a) == batch_key(b) is not None

    def test_per_row_parameters_share_a_key(self):
        # Duration, cap, tail and temperature recording are per row.
        base = batch_key(make_job())
        assert batch_key(make_job(duration_s=None)) == base
        assert batch_key(make_job(record_temperature=True)) == base
        assert batch_key(make_job(duration_s=2.0, max_duration_s=1.0, tail_s=0.5)) == base

    def test_different_grids_get_different_keys(self):
        assert batch_key(make_job(interval_s=0.02)) != batch_key(make_job(interval_s=0.04))
        assert batch_key(make_job(tick_s=0.001)) != batch_key(make_job(tick_s=0.002))
        assert batch_key(make_job(spec=SYS1)) != batch_key(make_job(spec=SYS2))


class TestBitIdentity:
    @pytest.mark.parametrize("spec", [SYS1, SYS2, SYS3], ids=["sys1", "sys2", "sys3"])
    def test_batch_matches_serial_per_platform(self, spec):
        jobs = [
            make_job(workload=workload, spec=spec, seed=5, run=run)
            for run, workload in enumerate(("volrend", "water_nsquared", "volrend"))
        ]
        batched = execute_jobs_batched(jobs)
        for job, trace in zip(jobs, batched):
            assert trace.equals(job.execute())

    def test_heterogeneous_batch_matches_serial(self, sys1_factory):
        """Mixed workloads, defenses (incl. maya_gs) and seeds in one batch."""
        jobs = [
            SessionJob.for_factory(
                sys1_factory,
                workload=workload,
                defense=defense,
                seed=seed,
                run_id=("batch-hetero", defense, seed),
                duration_s=1.0,
            )
            for workload, defense, seed in (
                ("volrend", "baseline", 1),
                ("water_nsquared", "noisy_baseline", 2),
                ("volrend", "random_inputs", 3),
                ("water_nsquared", "maya_gs", 4),
                ("volrend", "maya_gs", 5),
            )
        ]
        batched = execute_jobs_batched(jobs, factory=sys1_factory)
        for job, trace in zip(jobs, batched):
            assert trace.equals(job.execute(factory=sys1_factory))

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_batch_size_never_changes_results(self, workers):
        """The worker count sets the chunk size: 6, 2 and 1 sessions here."""
        jobs = [
            make_job(workload=workload, seed=9, run=run)
            for run in range(3)
            for workload in ("volrend", "water_nsquared")
        ]
        batched = run_sessions(jobs, cache=False, workers=workers)
        for job, trace in zip(jobs, batched):
            assert trace.equals(job.execute())

    def test_target_and_settings_logs_match(self, sys1_factory):
        """The per-interval logs (mask targets, actuations) are replayed too."""
        fleet = [
            SessionJob.for_factory(
                sys1_factory,
                workload="volrend",
                defense=defense,
                seed=21,
                run_id=("batch-logs", defense),
                duration_s=1.0,
            )
            for defense in ("maya_constant", "maya_gs", "random_inputs")
        ]
        batched = execute_jobs_batched(fleet, factory=sys1_factory)[1]
        serial = fleet[1].execute(factory=sys1_factory)
        assert np.array_equal(batched.target_w, serial.target_w, equal_nan=True)
        assert np.array_equal(batched.settings, serial.settings)
        # No target exists before the first decide; every later interval has one.
        assert np.isfinite(batched.target_w[1:]).all()


class TestBatchedMachineValidation:
    def test_mixed_batch_key_rejected(self):
        with pytest.raises(ValueError, match="batch_key"):
            execute_jobs_batched([make_job(spec=SYS1), make_job(spec=SYS2)])

    def test_empty_job_list_is_empty_result(self):
        assert execute_jobs_batched([]) == []


class TestEngineIntegration:
    def test_mixed_groups_and_fallback_keep_job_order(self):
        """Jobs of several groups and regimes come back in job order."""
        jobs = [
            make_job(workload="volrend", duration_s=1.0),
            make_job(workload="water_nsquared", duration_s=None, max_duration_s=1.0),
            make_job(workload="water_nsquared", duration_s=2.0, spec=SYS2),
            make_job(workload="volrend", duration_s=1.0, run=1),
        ]
        batched = run_sessions(jobs, cache=False)
        assert [t.workload for t in batched] == [j.workload for j in jobs]
        for job, trace in zip(jobs, batched):
            assert trace.equals(job.execute())

    def test_batch_results_populate_the_cache(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [make_job(run=run) for run in range(3)]
        first = run_sessions(jobs, cache=cache)
        assert cache.misses == len(jobs)
        second = run_sessions(jobs, cache=cache)
        assert cache.hits == len(jobs)
        for a, b in zip(first, second):
            assert a.equals(b)


class TestAttackPipelineReplay:
    def test_batch_collected_traces_replay_into_identical_outcome(self, tmp_path):
        """Cache lock-step traces, re-run the attack from the cache:
        segments, training and the confusion matrix must be byte-for-byte
        what the one-row traces produce."""
        scenario = AttackScenario(
            name="batch-replay",
            spec=SYS1,
            class_workloads=("volrend", "water_nsquared"),
            defense="baseline",
            runs_per_class=4,
            duration_s=2.0,
            segment_duration_s=1.0,
            segment_stride_s=0.5,
            mlp=MLPConfig(hidden_sizes=(16,), max_epochs=5),
            seed=3,
        )
        from repro.defenses.designs import DefenseFactory

        factory = DefenseFactory(SYS1, seed=scenario.seed)
        traces = [job.execute(factory=factory) for job in scenario_jobs(scenario, factory)]
        per_class = scenario.runs_per_class
        reference = [traces[:per_class], traces[per_class:]]
        baseline = train_and_evaluate(scenario, sample_runs(scenario, reference))

        cache = TraceCache(root=tmp_path)
        batched = run_attack(scenario, factory, cache=cache)
        replayed = run_attack(scenario, factory, cache=cache)
        assert cache.hits == 2 * scenario.runs_per_class

        for outcome in (batched, replayed):
            assert outcome.average_accuracy == baseline.average_accuracy
            assert np.array_equal(outcome.result.matrix, baseline.result.matrix)
            assert (outcome.n_train, outcome.n_val, outcome.n_test) == (
                baseline.n_train,
                baseline.n_val,
                baseline.n_test,
            )
