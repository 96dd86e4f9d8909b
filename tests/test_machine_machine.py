"""Tests for repro.machine.machine (work accounting + execution)."""

import numpy as np
import pytest

from repro.machine import ActuatorSettings, SYS1, SimulatedMachine
from repro.workloads import Phase, PhaseProgram


def two_phase_program():
    return PhaseProgram(
        name="twophase",
        phases=(
            Phase("low", 1.0, 0.2, 0.5),
            Phase("high", 1.0, 0.8, 1.0),
        ),
    )


def machine_for(program, **kwargs):
    kwargs.setdefault("workload_jitter", 0.0)
    return SimulatedMachine(SYS1, program, seed=5, run_id=0, **kwargs)


def max_perf():
    return ActuatorSettings(SYS1.freq_max_ghz, 0.0, 0.0)


class TestExecution:
    def test_completes_in_nominal_time_at_max_perf(self):
        machine = machine_for(two_phase_program())
        machine.advance(2.05, max_perf())
        assert machine.completed
        assert machine.completed_at_s == pytest.approx(2.0, abs=0.02)

    def test_not_complete_early(self):
        machine = machine_for(two_phase_program())
        machine.advance(1.0, max_perf())
        assert not machine.completed

    def test_low_frequency_slows_execution(self):
        machine = machine_for(two_phase_program())
        slow = ActuatorSettings(SYS1.freq_min_ghz, 0.0, 0.0)
        machine.advance(2.05, slow)
        assert not machine.completed  # needs ~2/(0.6)^1 > 3 s

    def test_idle_injection_slows_execution(self):
        machine = machine_for(two_phase_program())
        machine.advance(2.05, ActuatorSettings(SYS1.freq_max_ghz, 0.48, 0.0))
        assert not machine.completed

    def test_balloon_slows_execution(self):
        machine = machine_for(two_phase_program())
        machine.advance(2.05, ActuatorSettings(SYS1.freq_max_ghz, 0.0, 1.0))
        assert not machine.completed

    def test_power_rises_at_phase_boundary(self):
        machine = machine_for(two_phase_program())
        power, _ = machine.advance(2.0, max_perf())
        first = power[100:900].mean()
        second = power[1100:1900].mean()
        assert second > first + 5.0

    def test_power_after_completion_is_static_floor(self):
        machine = machine_for(two_phase_program())
        machine.advance(2.05, max_perf())
        power, _ = machine.advance(1.0, max_perf())
        model = machine.power_model
        assert power.mean() == pytest.approx(
            model.static_power(SYS1.freq_max_ghz), abs=1.0
        )

    def test_balloon_keeps_burning_after_completion(self):
        machine = machine_for(two_phase_program())
        machine.advance(2.05, max_perf())
        quiet, _ = machine.advance(1.0, max_perf())
        loud, _ = machine.advance(1.0, ActuatorSettings(SYS1.freq_max_ghz, 0.0, 1.0))
        assert loud.mean() > quiet.mean() + 10.0


class TestAccounting:
    def test_tick_count(self):
        machine = machine_for(two_phase_program())
        power, _ = machine.advance(0.5, max_perf())
        assert power.size == 500
        assert machine.time_s == pytest.approx(0.5)

    def test_sub_tick_duration_rejected(self):
        machine = machine_for(two_phase_program())
        with pytest.raises(ValueError):
            machine.advance(0.0001, max_perf())

    def test_reset_rewinds_workload(self):
        machine = machine_for(two_phase_program())
        machine.advance(2.05, max_perf())
        assert machine.completed
        machine.reset()
        assert not machine.completed
        assert machine.work_done == 0.0
        assert machine.time_s == 0.0

    def test_memory_bound_phase_insensitive_to_frequency(self):
        program = PhaseProgram(
            name="membound",
            phases=(Phase("mem", 2.0, 0.4, 1.0, memory_intensity=1.0),),
        )
        fast = machine_for(program)
        fast.advance(1.0, max_perf())
        slow = machine_for(program)
        slow.advance(1.0, ActuatorSettings(SYS1.freq_min_ghz, 0.0, 0.0))
        # Exponent 1 - 0.7*1 = 0.3: slowdown (0.6)^0.3 ~ 0.86, not 0.6.
        assert slow.work_done / fast.work_done == pytest.approx(0.6**0.3, rel=0.02)


class _StalledPhase(Phase):
    """A pathological phase whose progress rate is not a positive float."""

    rate: float = 0.0

    def progress_rate(self, freq_fraction, idle_frac, balloon_level):
        return self.rate


def _stalled_program(rate):
    phase = _StalledPhase("stalled", 1.0, 0.2, 0.5)
    object.__setattr__(phase, "rate", rate)
    return PhaseProgram(name="stalled", phases=(phase,))


class TestProgressRateClamp:
    """Regression: a zero/NaN progress rate used to divide by zero."""

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_pathological_rate_stays_finite(self, rate):
        machine = machine_for(_stalled_program(rate))
        power, _ = machine.advance(0.5, max_perf())
        assert power.size == 500
        assert np.all(np.isfinite(power))
        assert machine.time_s == pytest.approx(0.5)

    def test_zero_rate_never_completes(self):
        machine = machine_for(_stalled_program(0.0))
        machine.advance(2.0, max_perf())
        assert not machine.completed


def mixed_program():
    """A long oscillating phase, four phases shorter than one window, a flat one."""
    return PhaseProgram(name="mixed", phases=(
        Phase("long", 0.3, 0.4, 0.5, osc_amplitude=0.3, osc_period_s=0.07),
        *(
            Phase(f"short{n}", 0.004 + 0.003 * n, 0.3 + 0.1 * n, 0.5,
                  osc_amplitude=0.2 if n % 2 else 0.0, osc_period_s=0.003)
            for n in range(4)
        ),
        Phase("flat", 0.1, 0.7, 1.0),
    ))


def cursor_state(machine):
    return (
        machine._phase_index,
        machine._work_into_phase,
        machine.work_done,
        machine.time_s,
        repr(machine.completed_at_s),
    )


class TestWalk:
    """``walk`` over k windows leaves the machine, and fills the profile,
    exactly as k ``activity_profile`` calls do."""

    WINDOW_TICKS = 20

    @staticmethod
    def walk_against_calls(walker, stepper, n_windows, settings):
        """Walk ``walker``, step ``stepper`` window by window, compare both."""
        ticks = TestWalk.WINDOW_TICKS
        activity = np.full(n_windows * ticks, np.nan)
        core_fraction = np.full(n_windows * ticks, np.nan)
        walked = walker.walk(n_windows, ticks, settings, activity, core_fraction)
        # Only the walked windows are written.
        assert np.isnan(activity[walked * ticks:]).all()
        assert np.isnan(core_fraction[walked * ticks:]).all()
        activity = activity[:walked * ticks]
        core_fraction = core_fraction[:walked * ticks]
        stepped_activity = np.empty((walked, ticks))
        stepped_core = np.empty_like(stepped_activity)
        for window in range(walked):
            stepper.activity_profile(
                ticks, settings, stepped_activity[window], stepped_core[window]
            )
        assert cursor_state(walker) == cursor_state(stepper)
        assert activity.tobytes() == stepped_activity.tobytes()
        assert core_fraction.tobytes() == stepped_core.tobytes()
        return walked

    @staticmethod
    def pair(lead_ticks, settings):
        """Two jittered machines, both already ``lead_ticks`` into the program."""
        machines = [machine_for(mixed_program(), workload_jitter=0.08) for _ in range(2)]
        for machine in machines:
            if lead_ticks:
                machine.activity_profile(
                    lead_ticks, settings, np.empty(lead_ticks), np.empty(lead_ticks)
                )
        return machines

    @pytest.mark.parametrize("settings", [
        max_perf(), ActuatorSettings(SYS1.freq_min_ghz, 0.25, 0.5),
    ], ids=["max", "throttled"])
    @pytest.mark.parametrize("lead_ticks", [0, 7])
    def test_walk_inside_the_workload(self, settings, lead_ticks):
        walker, stepper = self.pair(lead_ticks, settings)
        for n_windows in (1, 3, 9):
            assert self.walk_against_calls(walker, stepper, n_windows, settings) == n_windows
        assert not walker.completed

    @pytest.mark.parametrize("lead_ticks", [0, 7])
    def test_walk_stops_in_the_window_that_completes(self, lead_ticks):
        settings = max_perf()
        walker, stepper = self.pair(lead_ticks, settings)
        walked = self.walk_against_calls(walker, stepper, 100, settings)
        assert walker.completed and 0 < walked < 100
        assert walker.completed_at_s > walker.time_s - self.WINDOW_TICKS * walker.tick_s
        # The rest of the walk coasts.
        assert self.walk_against_calls(walker, stepper, 100 - walked, settings) == 100 - walked

    def test_phases_ending_on_window_boundaries(self):
        """Unjittered 1.0-unit phases at max performance end on the last
        tick of a window: the fold must stop there, as the ``1e-9``
        boundary test does."""
        settings = max_perf()
        walker, stepper = (machine_for(two_phase_program()) for _ in range(2))
        walked = self.walk_against_calls(walker, stepper, 120, settings)
        assert walker.completed and walked == 100

    def test_walk_on_a_finished_machine(self):
        settings = max_perf()
        walker, stepper = self.pair(0, settings)
        for machine in (walker, stepper):
            machine.advance(1.0, settings)
            assert machine.completed
        for n_windows in (1, 40):
            assert self.walk_against_calls(walker, stepper, n_windows, settings) == n_windows


class TestJitter:
    def test_jitter_perturbs_program(self):
        base = two_phase_program()
        jittered = SimulatedMachine(SYS1, base, seed=5, run_id=1, workload_jitter=0.1)
        assert jittered.workload.total_work != pytest.approx(base.total_work, abs=1e-9)

    def test_jitter_differs_across_runs(self):
        base = two_phase_program()
        a = SimulatedMachine(SYS1, base, seed=5, run_id=1, workload_jitter=0.1)
        b = SimulatedMachine(SYS1, base, seed=5, run_id=2, workload_jitter=0.1)
        assert a.workload.total_work != b.workload.total_work

    def test_jitter_reproducible_per_run_id(self):
        base = two_phase_program()
        a = SimulatedMachine(SYS1, base, seed=5, run_id=1, workload_jitter=0.1)
        b = SimulatedMachine(SYS1, base, seed=5, run_id=1, workload_jitter=0.1)
        assert a.workload.total_work == b.workload.total_work


class TestTemperature:
    def test_temperature_recorded_when_enabled(self):
        machine = machine_for(two_phase_program(), record_temperature=True)
        _, temps = machine.advance(0.5, max_perf())
        assert temps.size == 500
        assert np.all(temps >= 30.0)

    def test_temperature_empty_when_disabled(self):
        machine = machine_for(two_phase_program())
        _, temps = machine.advance(0.5, max_perf())
        assert temps.size == 0
