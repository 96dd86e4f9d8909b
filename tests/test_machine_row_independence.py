"""Row independence of the row-batched physics steps.

``batch_window_power`` and ``measure_windows`` are the only
implementations of the power and RAPL steps: the lock-step kernel calls
them for a whole fleet, ``PowerModel.window_power`` and
``RaplSensor.measure_window`` call them with one row.  Traces therefore
match across the two paths exactly when no row's result depends on the
other rows of its call.  These properties pin that: for random fleets,
each row of a B-row call equals a one-row call on an identically seeded
model or sensor — the same output bits, the same carried AR(1) state and
the same RNG position.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.machine import (
    SYS1,
    ActuatorSettings,
    PowerModel,
    RaplSensor,
    batch_window_power,
    measure_windows,
    spawn,
)

TICK_S = 0.001

fleet_sizes = st.integers(min_value=1, max_value=12)
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


def rng_position(generator):
    return generator.bit_generator.state


class TestPowerRows:
    @given(
        seed=seeds,
        n_rows=fleet_sizes,
        windows=st.lists(tick_counts, min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_row_equals_a_one_row_call(self, seed, n_rows, windows):
        fleet = [PowerModel(SYS1, spawn(seed, "power", i)) for i in range(n_rows)]
        solo = [PowerModel(SYS1, spawn(seed, "power", i)) for i in range(n_rows)]
        for window, n_ticks in enumerate(windows):
            activity, core_fraction, held = random_window(seed, n_rows, n_ticks, window)
            batched_w = batch_window_power(fleet, activity, core_fraction, held)
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
            measured_w = measure_windows(fleet, tick_powers, TICK_S)
            assert measured_w.shape == (n_rows,)
            for row, sensor in enumerate(solo):
                alone_w = sensor.measure_window(tick_powers[row], TICK_S)
                assert np.array_equal(measured_w[row], alone_w)
                assert rng_position(fleet[row]._rng) == rng_position(sensor._rng)
