"""Tests for repro.machine.actuators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.machine import (
    ActuatorBank,
    ActuatorSettings,
    BalloonTask,
    DvfsActuator,
    IdleInjector,
    QuantizedActuator,
    SYS1,
    spawn,
)


class TestQuantizedActuator:
    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError):
            QuantizedActuator("x", np.array([]))

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError):
            QuantizedActuator("x", np.array([1.0, 0.5]))

    def test_quantize_snaps_to_nearest(self):
        act = QuantizedActuator("x", np.array([0.0, 1.0, 2.0]))
        assert act.quantize(0.4) == 0.0
        assert act.quantize(0.6) == 1.0
        assert act.quantize(5.0) == 2.0
        assert act.quantize(-3.0) == 0.0

    @given(st.floats(min_value=-10, max_value=10))
    def test_quantize_idempotent(self, value):
        act = QuantizedActuator("x", np.linspace(0.0, 2.0, 11))
        once = act.quantize(value)
        assert act.quantize(once) == once

    @given(st.floats(min_value=0, max_value=1))
    def test_normalize_denormalize_roundtrip(self, frac):
        act = DvfsActuator(SYS1)
        level = act.denormalize(frac)
        assert level in act.levels
        # Round-tripping a level through normalize is exact.
        assert act.denormalize(act.normalize(level)) == level


class TestPlatformActuators:
    def test_dvfs_levels_match_spec(self):
        assert np.array_equal(DvfsActuator(SYS1).levels, SYS1.freq_levels_ghz)

    def test_idle_levels_are_powerclamp_range(self):
        levels = IdleInjector(SYS1).levels
        assert levels[0] == 0.0
        assert levels[-1] == pytest.approx(0.48)
        assert np.allclose(np.diff(levels), 0.04)

    def test_balloon_levels_are_ten_percent_steps(self):
        levels = BalloonTask(SYS1).levels
        assert levels.size == 11
        assert np.allclose(np.diff(levels), 0.1)


class TestActuatorSettings:
    def test_vector_round_trip(self):
        s = ActuatorSettings(1.5, 0.2, 0.4)
        assert np.array_equal(s.as_vector(), [1.5, 0.2, 0.4])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"freq_ghz": 0.0, "idle_frac": 0.0, "balloon_level": 0.0},
            {"freq_ghz": 1.0, "idle_frac": -0.1, "balloon_level": 0.0},
            {"freq_ghz": 1.0, "idle_frac": 0.0, "balloon_level": 1.5},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ActuatorSettings(**kwargs)


class TestActuatorBank:
    def test_max_performance_is_baseline_point(self, bank):
        s = bank.max_performance()
        assert s.freq_ghz == SYS1.freq_max_ghz
        assert s.idle_frac == 0.0
        assert s.balloon_level == 0.0

    def test_quantize_produces_valid_levels(self, bank):
        s = bank.quantize(1.73, 0.13, 0.42)
        assert s.freq_ghz in bank.dvfs.levels
        assert s.idle_frac in bank.idle.levels
        assert s.balloon_level in bank.balloon.levels

    def test_quantize_normalized_shape_check(self, bank):
        with pytest.raises(ValueError):
            bank.quantize_normalized(np.array([0.5, 0.5]))

    @given(
        st.tuples(
            st.floats(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=1),
        )
    )
    def test_normalize_of_quantized_in_unit_cube(self, fracs):
        bank = ActuatorBank(SYS1)
        settings = bank.quantize_normalized(np.array(fracs))
        norm = bank.normalize(settings)
        assert np.all(norm >= 0.0) and np.all(norm <= 1.0)

    def test_random_settings_deterministic_per_stream(self, bank):
        a = bank.random_settings(spawn(7, "x"))
        b = bank.random_settings(spawn(7, "x"))
        assert a == b

    def test_random_settings_varies_across_streams(self, bank):
        draws = {bank.random_settings(spawn(7, "x", i)) for i in range(20)}
        assert len(draws) > 5

    def test_input_names_order(self, bank):
        assert bank.input_names == ("dvfs_ghz", "idle_frac", "balloon_level")


class TestVectorizedQuantization:
    @given(st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=1, max_size=40))
    def test_rows_match_scalar_quantize_normalized(self, fractions):
        bank = ActuatorBank(SYS1)
        commands = np.array(fractions)[:, None] * np.array([1.0, 0.7, 0.3])
        levels = bank.quantize_normalized_many(np.clip(commands, 0.0, 1.0))
        for row, command in zip(levels, commands):
            settings = bank.quantize_normalized(np.clip(command, 0.0, 1.0))
            assert np.array_equal(row, settings.as_vector())
            assert np.array_equal(bank.normalize_many(row[None, :])[0],
                                  bank.normalize(settings))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ActuatorBank(SYS1).quantize_normalized_many(np.zeros(3))
