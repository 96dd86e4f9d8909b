"""The lock-step kernel's paths, regime by regime.

``execute_jobs_batched`` runs constant-settings defenses through a
whole-session fast-forward and dynamic ones through the per-interval
loop, with per-row termination (completion mode, temperature recording,
per-row caps).  Every row of a multi-row call must reproduce its one-row
call (``job.execute()``) bit for bit (``Trace.equals``) in every execution
regime, and so must every end-to-end attack outcome built on its traces;
the fast-forward must reproduce the per-interval loop.  The golden trace
digests pin the absolute bits.  A fleet of at least ``WIDE_FLEET_ROWS``
rows runs its intervals as fleet passes and turns narrow as rows retire;
its rows must equal one-row calls too, machine state included, and so
must a wide constant-settings fleet, whose chunks filter their noise
time-major.  Also covered: the engine sends every pending job, a lone one
included, to the kernel as lock-step chunks.
"""

import json

import numpy as np
import pytest

from repro.attacks.mlp import MLPConfig
from repro.attacks.pipeline import (
    AttackScenario,
    sample_runs,
    scenario_jobs,
    simulate_runs,
    train_and_evaluate,
)
import repro.exec.batch as batch_mod
import repro.exec.engine as engine_mod
from repro import telemetry
from repro.core.runtime import run_session
from repro.defenses import Baseline, Defense
from repro.exec import SessionJob, batch_key, run_sessions
from repro.exec.batch import WIDE_FLEET_ROWS, SessionRow, build_fleet, simulate
from repro.machine import SYS1, ActuatorSettings, CursorFleet, SimulatedMachine
from repro.telemetry import TelemetryRecorder
from repro.workloads import Phase, PhaseProgram

from .conftest import TEST_SEED
from .test_import_budget import last_output_line
from .test_machine_row_independence import HalvedRatePhase


def make_job(
    factory,
    workload="volrend",
    defense="baseline",
    run=0,
    duration_s=1.0,
    **kwargs,
):
    return SessionJob.for_factory(
        factory,
        workload=workload,
        defense=defense,
        seed=TEST_SEED,
        run_id=("fast-test", workload, defense, run),
        duration_s=duration_s,
        **kwargs,
    )


def assert_matches_serial(jobs, factory):
    """Run ``jobs`` one at a time and through the engine; compare."""
    alone = [job.execute(factory=factory) for job in jobs]
    batched = run_sessions(jobs, factory=factory, cache=False)
    assert len(alone) == len(batched) == len(jobs)
    for a, b in zip(alone, batched):
        assert a.equals(b)
    return alone


def record_chunks(monkeypatch):
    """Spy on the engine's lock-step calls; returns the list of chunk sizes."""
    sizes = []
    real = engine_mod.execute_jobs_batched

    def spy(chunk_jobs, factory=None):
        sizes.append(len(chunk_jobs))
        return real(chunk_jobs, factory=factory)

    monkeypatch.setattr(engine_mod, "execute_jobs_batched", spy)
    return sizes


class TestChooseBackend:
    """Every pending job runs in an in-process lock-step chunk at
    ``workers=1``; a lone job is a one-row chunk."""

    @pytest.mark.parametrize("defense", ["random_inputs", "maya_gs"])
    def test_single_job_is_one_row_chunk(self, sys1_factory, monkeypatch, defense):
        sizes = record_chunks(monkeypatch)
        job = make_job(sys1_factory, defense=defense)
        [trace] = run_sessions([job], cache=False, factory=sys1_factory)
        assert run_sessions([], cache=False) == []
        assert sizes == [1]
        assert trace.equals(job.execute(factory=sys1_factory))

    @pytest.mark.parametrize("defense", ["baseline", "noisy_baseline"])
    def test_single_constant_settings_job_is_batch(
        self, sys1_factory, monkeypatch, defense
    ):
        # A lone constant-settings job takes the whole-session fast-forward.
        sizes = record_chunks(monkeypatch)
        job = make_job(sys1_factory, defense=defense)
        [trace] = run_sessions([job], cache=False)
        assert sizes == [1]
        assert trace.equals(job.execute())

    def test_batchable_majority_is_batch(self, sys1_factory, monkeypatch):
        sizes = record_chunks(monkeypatch)
        jobs = [make_job(sys1_factory, run=run) for run in range(4)]
        run_sessions(jobs, workers=1, cache=False)
        assert sizes == [4]

    def test_auto_never_picks_process(self):
        # Without an explicit worker count the engine never starts a pool,
        # however many cores the host has: every job runs in one in-process
        # chunk, and the pool modules are never even imported (checked in a
        # fresh interpreter, where nothing else has loaded them).
        script = f"""
import json
import os
import sys

os.environ.pop("REPRO_WORKERS", None)
os.cpu_count = lambda: 8

import repro.exec.engine as engine_mod
from repro.exec import SessionJob, run_sessions
from repro.experiments.common import make_factory
from repro.experiments.config import get_scale
from repro.machine import SYS1

sizes = []
real = engine_mod.execute_jobs_batched


def spy(chunk_jobs, factory=None):
    sizes.append(len(chunk_jobs))
    return real(chunk_jobs, factory=factory)


engine_mod.execute_jobs_batched = spy
factory = make_factory(SYS1, get_scale("smoke"))
jobs = [
    SessionJob.for_factory(
        factory, workload="volrend", defense="baseline", seed={TEST_SEED},
        run_id=run, duration_s=1.0,
    )
    for run in range(4)
]
run_sessions(jobs, cache=False)
pool = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
print(json.dumps({{"sizes": sizes, "pool": pool}}))
"""
        assert json.loads(last_output_line(script)) == {"sizes": [4], "pool": []}

    def test_fast_jobs_always_batch(self, sys1_factory, monkeypatch):
        # Masked per-row termination batches completion-mode and
        # temperature-recording jobs too.
        sizes = record_chunks(monkeypatch)
        jobs = [
            make_job(sys1_factory, run=0, duration_s=None, max_duration_s=1.0),
            make_job(sys1_factory, run=1, record_temperature=True),
        ]
        assert batch_key(jobs[0]) == batch_key(jobs[1])
        traces = run_sessions(jobs, workers=1, factory=sys1_factory, cache=False)
        assert sizes == [2]
        for job, trace in zip(jobs, traces):
            assert trace.equals(job.execute(factory=sys1_factory))


class TestKernelMatchesSerial:
    """Multi-row calls against one-row calls, per execution regime."""

    def test_fixed_duration_mixed_defenses(self, sys1_factory):
        jobs = [
            make_job(sys1_factory, workload=workload, defense=defense, run=run)
            for run, (workload, defense) in enumerate([
                ("volrend", "baseline"),
                ("water_nsquared", "maya_gs"),
                ("volrend", "maya_gs"),
                ("water_nsquared", "random_inputs"),
            ])
        ]
        assert_matches_serial(jobs, sys1_factory)

    def test_completion_mode(self, sys1_factory):
        jobs = [
            make_job(sys1_factory, workload=workload, defense=defense, run=run,
                     duration_s=None, max_duration_s=1.0, tail_s=0.1)
            for run, (workload, defense) in enumerate([
                ("volrend", "baseline"),
                ("water_nsquared", "maya_gs"),
            ])
        ]
        assert_matches_serial(jobs, sys1_factory)

    def test_temperature_recording(self, sys1_factory):
        jobs = [
            make_job(sys1_factory, defense=defense, run=run,
                     record_temperature=True)
            for run, defense in enumerate(("baseline", "maya_gs"))
        ]
        alone = assert_matches_serial(jobs, sys1_factory)
        for trace in alone:
            assert trace.temperature_c.size == trace.power_w.size > 0


class TestPerRowCaps:
    @pytest.mark.parametrize("defense", ["baseline", "maya_gs"])
    def test_rows_with_different_caps_share_one_batch(self, sys1_factory, defense):
        """A short loop that completes and one capped before it completes
        share one batch key, and each row stops exactly where its one-row
        call stops it."""
        jobs = [
            make_job(sys1_factory, workload="loop_imul", defense=defense, run=run,
                     workload_kwargs={"duration_s": 0.5}, duration_s=None,
                     max_duration_s=cap, tail_s=0.1)
            for run, cap in enumerate((5.0, 0.3))
        ]
        assert batch_key(jobs[0]) == batch_key(jobs[1]) is not None
        completes, capped = assert_matches_serial(jobs, sys1_factory)
        assert completes.completed
        assert completes.duration_s < 5.0
        assert not capped.completed
        assert capped.measured_w.size == 15


class TestAttackOutcomeIdentity:
    @pytest.mark.parametrize("defense", ["baseline", "maya_gs"])
    def test_outcomes_match_serial(self, sys1_factory, defense):
        scenario = AttackScenario(
            name=f"fast-equiv-{defense}",
            spec=SYS1,
            class_workloads=("volrend", "water_nsquared"),
            defense=defense,
            runs_per_class=3,
            duration_s=4.0,
            segment_duration_s=2.0,
            segment_stride_s=1.0,
            mlp=MLPConfig(hidden_sizes=(16,), max_epochs=6),
            seed=TEST_SEED,
        )
        alone = [job.execute(factory=sys1_factory)
                 for job in scenario_jobs(scenario, sys1_factory)]
        per_class = scenario.runs_per_class
        serial_runs = [alone[:per_class], alone[per_class:]]
        batched_runs = simulate_runs(scenario, sys1_factory, cache=False)
        for serial_class, batched_class in zip(serial_runs, batched_runs):
            for a, b in zip(serial_class, batched_class):
                assert a.equals(b)
        serial_outcome = train_and_evaluate(
            scenario, sample_runs(scenario, serial_runs)
        )
        batched_outcome = train_and_evaluate(
            scenario, sample_runs(scenario, batched_runs)
        )
        assert batched_outcome.average_accuracy == serial_outcome.average_accuracy
        assert np.array_equal(
            batched_outcome.result.matrix, serial_outcome.result.matrix
        )


class _LoopedBaseline(Baseline):
    """``baseline`` without the constant-settings flag: the per-interval loop."""

    constant_settings = False


class TestConstantFastForward:
    @pytest.mark.parametrize("fields", [
        {"duration_s": 1.0},
        {"duration_s": 1.0, "record_temperature": True},
        {"duration_s": None, "max_duration_s": 2.0, "tail_s": 0.1,
         "workload": "loop_imul", "workload_kwargs": {"duration_s": 0.5}},
        {"duration_s": None, "max_duration_s": 0.3, "tail_s": 0.1,
         "workload": "loop_imul", "workload_kwargs": {"duration_s": 0.5}},
    ], ids=["fixed", "temperature", "completes", "capped"])
    def test_matches_the_interval_loop(self, sys1_factory, fields):
        """The whole-session fast-forward records what the per-interval
        loop records for the same constant settings."""
        job = make_job(sys1_factory, **fields)
        traces = []
        for defense in (Baseline(), _LoopedBaseline()):
            machine = job.build_machine()
            traces.append(run_session(
                machine, defense, seed=job.seed, run_id=job.run_id,
                duration_s=job.duration_s, max_duration_s=job.max_duration_s,
                tail_s=job.tail_s,
            ))
        fast, looped = traces
        assert fast.equals(looped)
        assert fast.equals(job.execute(factory=sys1_factory))

    def test_matches_the_interval_loop_on_a_finished_machine(self, sys1_factory):
        """A machine whose workload already completed records its tail,
        not its whole cap, on both paths."""
        job = make_job(sys1_factory, workload="loop_imul", run=5,
                       workload_kwargs={"duration_s": 0.2}, duration_s=None,
                       max_duration_s=3.0, tail_s=0.1)
        traces = []
        for defense in (Baseline(), _LoopedBaseline()):
            machine = job.build_machine()
            machine.advance(0.5, machine.bank.max_performance())
            assert machine.completed
            traces.append(run_session(
                machine, defense, seed=job.seed, run_id=job.run_id,
                duration_s=None, max_duration_s=job.max_duration_s, tail_s=job.tail_s,
            ))
        fast, looped = traces
        assert looped.measured_w.size == 5
        assert fast.equals(looped)

    @staticmethod
    def assert_both_paths_agree(build_machine, **limits):
        """Both paths record one trace and leave the machine in one state."""
        results = []
        for defense in (Baseline(), _LoopedBaseline()):
            machine = build_machine()
            trace = run_session(machine, defense, seed=TEST_SEED, run_id="paths", **limits)
            results.append((trace, machine_state(machine)))
        (fast, fast_state), (looped, looped_state) = results
        assert fast.equals(looped)
        assert fast_state == looped_state
        return fast

    def test_multi_phase_parsec_app_in_fixed_mode(self, sys1_factory):
        """A fixed-duration session that crosses two phase boundaries and a
        chunk boundary."""
        job = make_job(sys1_factory, workload="freqmine", duration_s=12.0)
        trace = self.assert_both_paths_agree(job.build_machine, duration_s=12.0)
        assert trace.measured_w.size == 600
        assert np.isnan(trace.completed_at_s)

    def test_overridden_progress_rate_in_completion_mode(self):
        """Phases that override ``progress_rate``, one of them oscillating."""
        halved = PhaseProgram("halved", (
            HalvedRatePhase("a", 0.3, 0.5, 0.5, osc_amplitude=0.2, osc_period_s=0.05),
            HalvedRatePhase("b", 0.2, 0.8, 1.0),
        ))
        trace = self.assert_both_paths_agree(
            lambda: SimulatedMachine(SYS1, halved, seed=TEST_SEED, run_id="halved"),
            duration_s=None, max_duration_s=3.0, tail_s=0.1,
        )
        assert np.isfinite(trace.completed_at_s)
        assert trace.measured_w.size < 150

    def test_phases_shorter_than_one_interval(self):
        """Several segments share a window: every phase lasts 3-13 ms."""
        short = PhaseProgram("short", tuple(
            Phase(f"p{n}", 0.003 + 0.001 * (n % 11), 0.2 + 0.02 * n, 0.25 + 0.02 * n,
                  osc_amplitude=0.3 if n % 3 else 0.0, osc_period_s=0.004)
            for n in range(30)
        ))
        trace = self.assert_both_paths_agree(
            lambda: SimulatedMachine(SYS1, short, seed=TEST_SEED, run_id="short"),
            duration_s=None, max_duration_s=2.0, tail_s=0.1,
        )
        assert np.isfinite(trace.completed_at_s)


class _OffGridInputs(Defense):
    """Random settings every interval, the frequency off the DVFS grid."""

    name = "off_grid_inputs"

    def prepare(self, machine, rng):
        self._bank = machine.bank
        self._rng = rng
        self._settings = self._draw()

    def _draw(self):
        drawn = self._bank.random_settings(self._rng)
        return ActuatorSettings(drawn.freq_ghz - 0.037, drawn.idle_frac, drawn.balloon_level)

    def initial_settings(self):
        return self._settings

    def decide(self, measured_w):
        return self._draw()


def wide_rows(factory, telemetry_root):
    """``2 * WIDE_FLEET_ROWS`` fresh rows that turn narrow as they retire.

    ``WIDE_FLEET_ROWS + 3`` completion-mode rows (one cut off by its cap)
    retire within about half a second; the others run 1.5 s: Maya rows
    (one recorded by telemetry), a row whose phases override
    ``progress_rate`` and a row whose frequency is off the DVFS grid.
    """
    completing = [
        make_job(
            factory, workload="loop_imul", defense="maya_gs", run=run,
            workload_kwargs={"duration_s": 0.1 + 0.025 * run if run else 0.5},
            duration_s=None, max_duration_s=2.0 if run else 0.2, tail_s=0.1,
        )
        for run in range(WIDE_FLEET_ROWS + 3)
    ]
    apps = ("volrend", "water_nsquared", "bodytrack")
    n_fixed = WIDE_FLEET_ROWS - 6
    fixed = [
        make_job(factory, workload=apps[run % 3], defense="maya_gs", run=run, duration_s=1.5)
        for run in range(n_fixed)
    ]
    rows = build_fleet(completing + fixed, factory)
    telemetry.set_recorder(TelemetryRecorder(root=telemetry_root))
    try:
        rows += build_fleet([make_job(factory, defense="maya_gs", run=99, duration_s=1.5)], factory)
    finally:
        telemetry.set_recorder(None)
    halved = PhaseProgram("halved", (
        HalvedRatePhase("a", 0.3, 0.5, 0.5, osc_amplitude=0.2, osc_period_s=0.05),
        HalvedRatePhase("b", 0.2, 0.8, 1.0),
    ))
    custom = (
        (SimulatedMachine(SYS1, halved, seed=TEST_SEED, run_id="halved"),
         factory.create("maya_gs")),
        (make_job(factory, workload="water_nsquared").build_machine(), _OffGridInputs()),
    )
    for run, (machine, defense) in enumerate(custom):
        rows.append(SessionRow(
            machine, defense, seed=TEST_SEED, run_id=("custom", run), interval_s=0.02,
            duration_s=1.5, max_duration_s=2.0, tail_s=0.1,
        ))
    assert len(rows) == 2 * WIDE_FLEET_ROWS
    return rows


def machine_state(machine):
    return (
        machine._phase_index,
        machine._work_into_phase,
        machine.work_done,
        machine.time_s,
        repr(machine.completed_at_s),
        machine.power_model._noise_state,
        repr(machine.power_model._rng.bit_generator.state),
    )


class TestWideFleet:
    def test_rows_equal_one_row_calls_across_the_threshold(
        self, sys1_factory, tmp_path, monkeypatch
    ):
        alone = []
        for row in wide_rows(sys1_factory, tmp_path):
            [trace] = simulate([row])
            alone.append((trace, machine_state(row.machine)))
        [recorded] = list(tmp_path.glob("session-*.jsonl"))
        alone_events = recorded.read_bytes()

        fleets = []

        class Spy(CursorFleet):
            def __init__(self, machines):
                super().__init__(machines)
                self.narrowed = False
                fleets.append(self)

            def write_back(self, rows=None):
                self.narrowed |= rows is None
                super().write_back(rows)

        monkeypatch.setattr(batch_mod, "CursorFleet", Spy)
        rows = wide_rows(sys1_factory, tmp_path)
        traces = simulate(rows)
        # One wide stretch that turned narrow when the completing rows left.
        assert [fleet.narrowed for fleet in fleets] == [True]
        for row, trace, (alone_trace, alone_state) in zip(rows, traces, alone):
            assert trace.equals(alone_trace)
            assert machine_state(row.machine) == alone_state
        assert recorded.read_bytes() == alone_events
        completed = [row for row in rows if row.tail is not None]
        assert np.isnan(completed[0].trace.completed_at_s)
        assert all(np.isfinite(row.trace.completed_at_s) for row in completed[1:])

    def test_constant_rows_equal_one_row_calls_across_the_threshold(
        self, sys1_factory, monkeypatch
    ):
        """The constant-settings fast-forward filters a wide chunk's noise
        time-major and a narrow one row by row; completion-mode rows that
        end inside a wide chunk draw their noise only to their stop and end
        where one-row calls leave them (RNG position, AR(1) level, clock)."""

        def constant_rows():
            completing = [
                make_job(
                    sys1_factory, workload="loop_imul", defense="noisy_baseline",
                    run=run, workload_kwargs={"duration_s": 0.1 + 0.05 * run},
                    duration_s=None, max_duration_s=2.0, tail_s=0.1,
                )
                for run in range(WIDE_FLEET_ROWS + 3)
            ]
            apps = ("volrend", "water_nsquared", "bodytrack")
            fixed = [
                make_job(sys1_factory, workload=apps[run % 3],
                         defense="noisy_baseline", run=run, duration_s=3.0)
                for run in range(WIDE_FLEET_ROWS - 3)
            ]
            return build_fleet(completing + fixed, sys1_factory)

        alone = []
        for row in constant_rows():
            [trace] = simulate([row])
            alone.append((trace, machine_state(row.machine)))

        layouts = []
        real = batch_mod.draw_noise

        def spy(models, sensors, n_windows, window_ticks, time_major=False, row_windows=None):
            if models:
                short = row_windows is not None and min(row_windows) < n_windows
                layouts.append((len(models), time_major, short))
            return real(models, sensors, n_windows, window_ticks, time_major, row_windows)

        monkeypatch.setattr(batch_mod, "draw_noise", spy)
        rows = constant_rows()
        assert len(rows) == 2 * WIDE_FLEET_ROWS
        traces = simulate(rows)
        # Wide chunks first, then narrow ones once the completing rows left.
        # A retiring row drew only to its stop, so no one-row rewind
        # redraws it.
        chunks = [(n, major) for n, major, _ in layouts]
        assert chunks[0] == (2 * WIDE_FLEET_ROWS, True)
        assert chunks[-1] == (WIDE_FLEET_ROWS - 3, False)
        assert all(major == (n >= WIDE_FLEET_ROWS) for n, major in chunks)
        assert any(short for *_, short in layouts)
        for row, trace, (alone_trace, alone_state) in zip(rows, traces, alone):
            assert trace.equals(alone_trace)
            assert machine_state(row.machine) == alone_state
        completed = [row for row in rows if row.tail is not None]
        # All but the slowest, which its cap cuts off, complete in the chunk.
        assert all(np.isfinite(row.trace.completed_at_s) for row in completed[:-1])
        assert np.isnan(completed[-1].trace.completed_at_s)


def mixed_rows(factory, n_rows):
    """``n_rows`` fresh rows cycling Maya GS, Random Inputs and a defense
    whose frequency is off the DVFS grid (appended joint levels)."""
    rows = []
    apps = ("volrend", "water_nsquared", "bodytrack")
    for run in range(n_rows):
        workload = apps[run % 3]
        if run % 3 == 2:
            machine = make_job(factory, workload=workload, run=run).build_machine()
            rows.append(SessionRow(
                machine, _OffGridInputs(), seed=TEST_SEED, run_id=("mixed", run),
                interval_s=0.02, duration_s=0.8, max_duration_s=2.0, tail_s=0.1,
            ))
        else:
            defense = ("maya_gs", "random_inputs")[run % 3]
            rows += build_fleet(
                [make_job(factory, workload=workload, defense=defense, run=run, duration_s=0.8)],
                factory,
            )
    return rows


class TestLevelIndexFleets:
    @pytest.mark.parametrize("n_rows", [3, WIDE_FLEET_ROWS + 3], ids=["narrow", "wide"])
    def test_mixed_rows_equal_one_row_calls(self, sys1_factory, n_rows):
        """Maya commands, open-loop decisions and off-grid settings share
        one level index space; each row still records, and leaves its
        machine, exactly as its one-row call."""
        alone = []
        for row in mixed_rows(sys1_factory, n_rows):
            [trace] = simulate([row])
            alone.append((trace, machine_state(row.machine)))
        rows = mixed_rows(sys1_factory, n_rows)
        traces = simulate(rows)
        off_grid = traces[2].settings[:, 0]
        assert not np.isin(off_grid, SYS1.freq_levels_ghz).any()
        for row, trace, (alone_trace, alone_state) in zip(rows, traces, alone):
            assert trace.equals(alone_trace)
            assert machine_state(row.machine) == alone_state
