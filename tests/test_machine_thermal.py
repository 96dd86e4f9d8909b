"""Tests for repro.machine.thermal."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import ThermalModel, spawn


class TestThermalModel:
    def test_steady_state_formula(self):
        model = ThermalModel(ambient_c=30.0, resistance_c_per_w=1.0)
        assert model.steady_state(20.0) == pytest.approx(50.0)

    def test_converges_to_steady_state(self):
        model = ThermalModel(time_constant_s=2.0)
        temps = model.advance(np.full(30_000, 15.0), tick_s=0.001)
        assert temps[-1] == pytest.approx(model.steady_state(15.0), abs=0.1)

    def test_monotone_warmup_from_ambient(self):
        model = ThermalModel()
        temps = model.advance(np.full(5_000, 20.0), tick_s=0.001)
        assert np.all(np.diff(temps) >= -1e-12)

    def test_time_constant_sets_rate(self):
        fast = ThermalModel(time_constant_s=1.0)
        slow = ThermalModel(time_constant_s=20.0)
        p = np.full(2_000, 25.0)
        assert fast.advance(p, 0.001)[-1] > slow.advance(p, 0.001)[-1]

    def test_temperature_tracks_power_low_pass(self):
        # A power square wave produces a smoothed temperature wave: the
        # physical reason masking power also masks the thermal channel.
        model = ThermalModel(time_constant_s=4.0)
        power = np.concatenate([np.full(4_000, 10.0), np.full(4_000, 30.0)] * 4)
        temps = model.advance(power, 0.001)[16_000:]  # skip ambient warm-up
        temp_swing = temps.max() - temps.min()
        full_swing = model.steady_state(30.0) - model.steady_state(10.0)
        assert 0.0 < temp_swing < full_swing

    def test_reset(self):
        model = ThermalModel(ambient_c=35.0)
        model.advance(np.full(100, 30.0), 0.001)
        model.reset()
        assert model.temperature_c == 35.0

    def test_state_continuity_across_windows(self):
        model = ThermalModel()
        a = model.advance(np.full(1_000, 20.0), 0.001)
        b = model.advance(np.full(1_000, 20.0), 0.001)
        assert b[0] >= a[-1] - 1e-9

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel(time_constant_s=0.0)
        with pytest.raises(ValueError):
            ThermalModel(resistance_c_per_w=-1.0)

    def test_empty_window(self):
        assert ThermalModel().advance(np.empty(0), 0.001).size == 0

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.data(),
        st.sampled_from([0.5, 2.0, 8.0, 60.0]),
        st.sampled_from([1e-4, 1e-3, 0.02]),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_window_matches_whole_window(self, seed, n_ticks, data, tau_s, tick_s):
        # The node carries its temperature exactly: a window advanced in
        # two pieces, split at any tick, gives the bits of one advance.
        power_w = spawn(seed, "power").uniform(0.0, 40.0, size=n_ticks)
        split = data.draw(st.integers(0, n_ticks))
        whole = ThermalModel(time_constant_s=tau_s)
        pieces = ThermalModel(time_constant_s=tau_s)
        expected = whole.advance(power_w, tick_s)
        got = np.concatenate(
            [pieces.advance(power_w[:split], tick_s), pieces.advance(power_w[split:], tick_s)]
        )
        assert got.tobytes() == expected.tobytes()
        assert pieces.temperature_c == whole.temperature_c
