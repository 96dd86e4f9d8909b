"""Row independence of the row-batched physics steps.

``batch_window_power`` and ``measure_windows`` are the only
implementations of the power and RAPL steps, and ``draw_noise`` the only
draw of their noise: the lock-step kernel calls them for a whole fleet,
``PowerModel.window_power`` and ``RaplSensor.measure_window`` call them
with one row.  Traces therefore match across the two paths exactly when
no row's result depends on the other rows of its call.  These properties
pin that: for random fleets, each row of a B-row call equals a one-row
call on an identically seeded model or sensor — the same output bits, the
same carried AR(1) state and the same RNG position.  The phase cursor is
pinned the same way: each row of one ``activity_profiles`` pass, and of a
``CursorFleet`` kept over several windows, equals that machine's own
``activity_profile`` call, profile bits and cursor state alike.  A
multi-window ``measure_windows`` call, the constant-settings
fast-forward's RAPL read, equals consecutive one-window calls, and one
``draw_noise`` block of k windows, the dynamic loop's draw ahead, equals
k one-window draws, filtered row by row or time-major.  Fleets reach
twice the kernel's ``WIDE_FLEET_ROWS``, so both of its paths are covered.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.exec.batch import WIDE_FLEET_ROWS
from repro.machine import (
    SYS1,
    ActuatorBank,
    ActuatorSettings,
    CursorFleet,
    JointLevels,
    PowerModel,
    RaplSensor,
    SimulatedMachine,
    activity_profiles,
    batch_window_power,
    draw_noise,
    measure_windows,
    spawn,
)
from repro.workloads import Phase, PhaseProgram

TICK_S = 0.001

fleet_sizes = st.integers(min_value=1, max_value=2 * WIDE_FLEET_ROWS)
tick_counts = st.integers(min_value=1, max_value=50)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_window(seed, n_rows, n_ticks, window):
    """Per-row activity, occupancy and held settings for one window.

    Occupancy is per tick on some rows and constant (including the 0/1
    extremes) on others, as windows inside and across phases produce.
    """
    rng = spawn(seed, "window", window)
    activity = rng.uniform(0.0, 1.0, size=(n_rows, n_ticks))
    core_fraction = rng.uniform(0.0, 1.0, size=(n_rows, n_ticks))
    constant = rng.uniform(size=n_rows) < 0.5
    levels = rng.choice([0.0, 0.25, 1.0], size=n_rows)
    core_fraction[constant] = levels[constant, None]
    held = [
        ActuatorSettings(
            float(rng.choice(SYS1.freq_levels_ghz)),
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(0.0, 1.0)),
        )
        for _ in range(n_rows)
    ]
    return activity, core_fraction, held


def indexed(held):
    """Joint levels of SYS1 and the index of each of a list of settings."""
    levels = JointLevels(ActuatorBank(SYS1))
    return levels, np.array([levels.index(settings) for settings in held], dtype=np.intp)


def rng_position(generator):
    return generator.bit_generator.state


class TestPowerRows:
    @given(
        seed=seeds,
        n_rows=fleet_sizes,
        windows=st.lists(tick_counts, min_size=1, max_size=3),
        wide=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_row_equals_a_one_row_call(self, seed, n_rows, windows, wide):
        """Also with a wide fleet's time-major noise.  The off-grid idle and
        balloon levels drawn here are appended rows of the joint levels."""
        fleet = [PowerModel(SYS1, spawn(seed, "power", i)) for i in range(n_rows)]
        solo = [PowerModel(SYS1, spawn(seed, "power", i)) for i in range(n_rows)]
        for window, n_ticks in enumerate(windows):
            activity, core_fraction, held = random_window(seed, n_rows, n_ticks, window)
            noise_w, _ = draw_noise(fleet, [], 1, n_ticks, time_major=wide)
            batched_w = batch_window_power(
                fleet[0], activity, core_fraction, *indexed(held), noise_w
            )
            assert batched_w.shape == (n_rows, n_ticks)
            for row, model in enumerate(solo):
                alone_w = model.window_power(
                    activity[row],
                    core_fraction[row],
                    held[row].freq_ghz,
                    held[row].idle_frac,
                    held[row].balloon_level,
                )
                assert np.array_equal(batched_w[row], alone_w)
                assert fleet[row]._noise_state == model._noise_state
                assert rng_position(fleet[row]._rng) == rng_position(model._rng)


class TestRaplRows:
    @given(
        seed=seeds,
        n_rows=fleet_sizes,
        windows=st.lists(tick_counts, min_size=1, max_size=3),
        noise_w=st.sampled_from([0.0, 0.06, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_row_equals_a_one_row_call(self, seed, n_rows, windows, noise_w):
        fleet = [
            RaplSensor(SYS1, spawn(seed, "rapl", i), noise_w=noise_w)
            for i in range(n_rows)
        ]
        solo = [
            RaplSensor(SYS1, spawn(seed, "rapl", i), noise_w=noise_w)
            for i in range(n_rows)
        ]
        for window, n_ticks in enumerate(windows):
            rng = spawn(seed, "tick-power", window)
            tick_powers = rng.uniform(0.1, 60.0, size=(n_rows, n_ticks))
            _, noise_w = draw_noise([], fleet, 1, n_ticks)
            measured_w = measure_windows(tick_powers, TICK_S, noise_w[:, 0])
            assert measured_w.shape == (n_rows,)
            for row, sensor in enumerate(solo):
                alone_w = sensor.measure_window(tick_powers[row], TICK_S)
                assert np.array_equal(measured_w[row], alone_w)
                assert rng_position(fleet[row]._rng) == rng_position(sensor._rng)

    @given(
        seed=seeds,
        n_rows=fleet_sizes,
        n_windows=st.integers(min_value=1, max_value=30),
        n_ticks=tick_counts,
        noise_w=st.sampled_from([0.0, 0.06, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_window_call_equals_one_window_calls(
        self, seed, n_rows, n_windows, n_ticks, noise_w
    ):
        """A ``(B, windows, ticks)`` block measures what ``windows``
        consecutive one-window calls measure, row by row."""
        fleet = [
            RaplSensor(SYS1, spawn(seed, "rapl", i), noise_w=noise_w)
            for i in range(n_rows)
        ]
        solo = [
            RaplSensor(SYS1, spawn(seed, "rapl", i), noise_w=noise_w)
            for i in range(n_rows)
        ]
        rng = spawn(seed, "tick-power")
        tick_powers = rng.uniform(0.1, 60.0, size=(n_rows, n_windows * n_ticks))
        _, noise_w = draw_noise([], fleet, n_windows, n_ticks)
        measured_w = measure_windows(
            tick_powers.reshape(n_rows, n_windows, n_ticks), TICK_S, noise_w
        )
        assert measured_w.shape == (n_rows, n_windows)
        for row, sensor in enumerate(solo):
            alone_w = [
                sensor.measure_window(window, TICK_S)
                for window in tick_powers[row].reshape(n_windows, n_ticks)
            ]
            assert np.array_equal(bits(measured_w[row]), bits(alone_w))
            assert rng_position(fleet[row]._rng) == rng_position(sensor._rng)


class TestNoiseBlocks:
    @given(
        seed=seeds,
        n_rows=fleet_sizes,
        n_windows=st.integers(min_value=1, max_value=20),
        n_ticks=tick_counts,
        time_major=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_block_equals_one_window_draws(
        self, seed, n_rows, n_windows, n_ticks, time_major
    ):
        """One ``draw_noise`` call over k windows, filtered row by row or
        time-major, draws what k one-window calls draw row by row: noise
        bits, carried AR(1) level and RNG positions alike."""
        models = [PowerModel(SYS1, spawn(seed, "power", i)) for i in range(n_rows)]
        sensors = [RaplSensor(SYS1, spawn(seed, "rapl", i)) for i in range(n_rows)]
        # Carried levels, as every block after a session's first starts from.
        levels = spawn(seed, "level").normal(size=n_rows).tolist()
        for model, level in zip(models, levels):
            model._noise_state = level
        power_w, counter_w = draw_noise(
            models, sensors, n_windows, n_ticks, time_major=time_major
        )
        assert power_w.shape == (n_rows, n_windows * n_ticks)
        assert counter_w.shape == (n_rows, n_windows)
        for row in range(n_rows):
            model = PowerModel(SYS1, spawn(seed, "power", row))
            model._noise_state = levels[row]
            sensor = RaplSensor(SYS1, spawn(seed, "rapl", row))
            windows = [draw_noise([model], [sensor], 1, n_ticks) for _ in range(n_windows)]
            alone_power = np.concatenate([power[0] for power, _ in windows])
            alone_counter = [counter[0, 0] for _, counter in windows]
            assert np.array_equal(bits(power_w[row]), bits(alone_power))
            assert np.array_equal(bits(counter_w[row]), bits(alone_counter))
            assert models[row]._noise_state == model._noise_state
            assert rng_position(models[row]._rng) == rng_position(model._rng)
            assert rng_position(sensors[row]._rng) == rng_position(sensor._rng)


    @given(
        seed=seeds,
        row_windows=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=30),
        n_ticks=tick_counts,
        time_major=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_drawn_to_their_own_stops(self, seed, row_windows, n_ticks, time_major):
        """With ``row_windows`` each row draws what a draw of only its own
        windows draws: the noise through them, the carried AR(1) level at
        its own last tick and the RNG position."""
        n_windows = max(row_windows)
        models = [PowerModel(SYS1, spawn(seed, "power", i)) for i in range(len(row_windows))]
        levels = spawn(seed, "level").normal(size=len(row_windows)).tolist()
        for model, level in zip(models, levels):
            model._noise_state = level
        power_w, _ = draw_noise(
            models, [], n_windows, n_ticks, time_major=time_major, row_windows=row_windows
        )
        assert power_w.shape == (len(row_windows), n_windows * n_ticks)
        for row, windows in enumerate(row_windows):
            model = PowerModel(SYS1, spawn(seed, "power", row))
            model._noise_state = levels[row]
            alone_w, _ = draw_noise([model], [], windows, n_ticks)
            assert np.array_equal(bits(power_w[row, :windows * n_ticks]), bits(alone_w[0]))
            assert models[row]._noise_state == model._noise_state
            assert rng_position(models[row]._rng) == rng_position(model._rng)


#: Where a row's cursor starts relative to its phase's end, for a window.
CURSOR_KINDS = (
    "fresh",  # start of the first phase
    "inside",  # somewhere well inside a phase
    "crosses",  # the phase ends a few ticks into the window
    "at_edge",  # the window ends within 1e-9 work units of the phase end
    "completes",  # the last phase ends inside the window
    "completed",  # the workload finished before the window
)

#: Oscillation amplitudes: flat, below the 1e-12 flat threshold, real.
AMPLITUDES = (0.0, 1e-13, 0.08, 0.3)


class HalvedRatePhase(Phase):
    """A phase whose ``progress_rate`` overrides the base class's."""

    def progress_rate(self, freq_fraction, idle_frac, balloon_level):
        return 0.5 * Phase.progress_rate(self, freq_fraction, idle_frac, balloon_level)


@st.composite
def cursor_rows(draw):
    """One row of a phase-cursor fleet: program, settings and start state.

    Some rows' phases override ``progress_rate`` and some rows hold a
    frequency off the DVFS grid.
    """
    n_phases = draw(st.integers(min_value=1, max_value=3))
    phase_type = draw(st.sampled_from([Phase, Phase, HalvedRatePhase]))
    phases = tuple(
        phase_type(
            f"p{index}",
            work_units=draw(st.sampled_from([0.005, 0.013, 0.05, 0.4])),
            activity=draw(st.floats(min_value=0.0, max_value=1.0)),
            core_fraction=draw(st.sampled_from([0.25, 0.5, 1.0])),
            memory_intensity=draw(st.sampled_from([0.0, 0.4])),
            osc_amplitude=draw(st.sampled_from(AMPLITUDES)),
            osc_period_s=draw(st.sampled_from([0.007, 0.05, 0.3])),
        )
        for index in range(n_phases)
    )
    return (
        phases,
        draw(st.integers(min_value=0, max_value=2**31 - 1)),
        draw(st.sampled_from(CURSOR_KINDS)),
        draw(st.integers(min_value=1, max_value=6)),
        draw(st.sampled_from([-2e-9, -5e-10, 0.0, 5e-10, 2e-9])),
        draw(st.floats(min_value=0.0, max_value=0.999)),
        draw(st.booleans()),
    )


def cursor_machine(row, index, n_ticks):
    """A machine for ``row``, its cursor placed as the row's kind asks."""
    phases, seed, kind, ticks_into_window, edge_offset, fraction, *off_grid = row
    machine = SimulatedMachine(
        SYS1,
        PhaseProgram("cursor", phases),
        seed=seed,
        run_id=index,
        workload_jitter=0.0,
    )
    held = ActuatorBank(SYS1).random_settings(spawn(seed, "held", index))
    if off_grid and off_grid[0]:
        held = ActuatorSettings(held.freq_ghz - 0.037, held.idle_frac, held.balloon_level)
    if kind == "fresh":
        return machine, held
    if kind == "completed":
        machine._phase_index = len(phases)
        machine.completed_at_s = 0.25
        return machine, held
    machine._phase_index = len(phases) - 1 if kind == "completes" else 0
    phase = phases[machine._phase_index]
    work_per_tick = phase.progress_rate(
        held.freq_ghz / SYS1.freq_max_ghz, held.idle_frac, held.balloon_level
    ) * machine.tick_s
    if kind == "inside":
        work_into_phase = fraction * phase.work_units
    elif kind == "at_edge":
        work_into_phase = phase.work_units - n_ticks * work_per_tick + edge_offset
    else:  # crosses or completes: the phase ends inside the window
        ticks_left = min(ticks_into_window, n_ticks)
        work_into_phase = phase.work_units - ticks_left * work_per_tick + edge_offset
    machine._work_into_phase = min(max(work_into_phase, 0.0), phase.work_units * 0.999)
    return machine, held


def cursor_state(machine):
    return (
        machine._phase_index,
        machine._work_into_phase,
        machine.work_done,
        machine.time_s,
        repr(machine.completed_at_s),
    )


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def fleet_state(cursors, k):
    """Row ``k``'s cursor state as a :class:`CursorFleet` holds it."""
    return (
        int(cursors.phase_index[k]),
        float(cursors.work_into_phase[k]),
        float(cursors.work_done[k]),
        float(cursors.time_s[k]),
        repr(float(cursors.completed_at_s[k])),
    )


class TestPhaseCursorRows:
    @given(
        rows=st.lists(cursor_rows(), min_size=1, max_size=2 * WIDE_FLEET_ROWS),
        n_ticks=st.integers(min_value=1, max_value=40),
        windows=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_row_equals_its_own_activity_profile(self, rows, n_ticks, windows):
        fleet = [cursor_machine(row, index, n_ticks) for index, row in enumerate(rows)]
        solo = [cursor_machine(row, index, n_ticks) for index, row in enumerate(rows)]
        machines = [machine for machine, _ in fleet]
        levels, index = indexed([row_settings for _, row_settings in fleet])
        for _ in range(windows):
            activity = np.empty((len(rows), n_ticks))
            core_fraction = np.empty((len(rows), n_ticks))
            activity_profiles(machines, n_ticks, levels, index, activity, core_fraction)
            for k, (machine, row_settings) in enumerate(solo):
                alone_activity = np.empty(n_ticks)
                alone_core = np.empty(n_ticks)
                machine.activity_profile(n_ticks, row_settings, alone_activity, alone_core)
                assert np.array_equal(bits(activity[k]), bits(alone_activity))
                assert np.array_equal(bits(core_fraction[k]), bits(alone_core))
                assert cursor_state(machines[k]) == cursor_state(machine)

    @given(
        rows=st.lists(cursor_rows(), min_size=1, max_size=2 * WIDE_FLEET_ROWS),
        n_ticks=st.integers(min_value=1, max_value=40),
        windows=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_cursor_fleet_rows_equal_their_own_activity_profiles(
        self, rows, n_ticks, windows
    ):
        """A kept fleet's arrays follow each machine's own cursor window by
        window; the rows it drops after the first window and the rest at
        the end are written back to their machines exactly."""
        fleet = [cursor_machine(row, index, n_ticks) for index, row in enumerate(rows)]
        solo = [cursor_machine(row, index, n_ticks) for index, row in enumerate(rows)]
        cursors = CursorFleet([machine for machine, _ in fleet])
        levels, held = indexed([row_settings for _, row_settings in fleet])
        live = list(range(len(rows)))
        for window in range(windows):
            activity = np.empty((len(live), n_ticks))
            core_fraction = np.empty((len(live), n_ticks))
            cursors.advance(n_ticks, levels, held[live], activity, core_fraction)
            for k, index in enumerate(live):
                machine, row_settings = solo[index]
                alone_activity = np.empty(n_ticks)
                alone_core = np.empty(n_ticks)
                machine.activity_profile(n_ticks, row_settings, alone_activity, alone_core)
                assert np.array_equal(bits(activity[k]), bits(alone_activity))
                assert np.array_equal(bits(core_fraction[k]), bits(alone_core))
                assert fleet_state(cursors, k) == cursor_state(machine)
            if window == 0 and len(live) > 1:
                cursors.keep(list(range(0, len(live), 2)))
                for index in live[1::2]:
                    assert cursor_state(fleet[index][0]) == cursor_state(solo[index][0])
                live = live[::2]
        cursors.write_back()
        for index in live:
            assert cursor_state(fleet[index][0]) == cursor_state(solo[index][0])

    def test_the_generated_rows_reach_every_cursor_path(self):
        # Each start kind takes the path it is named for on a 20-tick
        # window: inside or at the edge, the first segment covers the
        # window; crossing or completing, it stops short of it.
        phases = (
            Phase("a", 0.05, 0.4, 0.5, osc_amplitude=0.1, osc_period_s=0.05),
            Phase("b", 0.05, 0.6, 1.0),
        )
        covers = {}
        for kind in CURSOR_KINDS:
            machine, held = cursor_machine((phases, 3, kind, 7, 5e-10, 0.2), 0, 20)
            was_completed = machine.completed
            phase, _, _, seg_ticks = machine.next_segment(20, held)
            covers[kind] = (phase is not None, seg_ticks == 20, was_completed)
        assert covers["fresh"] == (True, True, False)
        assert covers["inside"] == (True, True, False)
        assert covers["at_edge"] == (True, True, False)
        assert covers["crosses"] == (True, False, False)
        assert covers["completes"] == (True, False, False)
        assert covers["completed"] == (False, True, True)

    def test_edge_rows_land_within_1e_9_of_the_boundary(self):
        phases = (Phase("a", 0.05, 0.4, 0.5), Phase("b", 0.05, 0.6, 1.0))
        machine, held = cursor_machine((phases, 3, "at_edge", 7, -5e-10, 0.2), 0, 20)
        start = machine._work_into_phase
        _, _, work_per_tick, seg_ticks = machine.next_segment(20, held)
        # The window ends short of the phase end, within the cursor's 1e-9
        # boundary tolerance, so the phase still counts as finished.
        end = start + work_per_tick * seg_ticks
        assert phases[0].work_units - 1e-9 <= end < phases[0].work_units
        assert (machine._phase_index, machine._work_into_phase) == (1, 0.0)
