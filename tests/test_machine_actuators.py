"""Tests for repro.machine.actuators."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import (
    ActuatorBank,
    ActuatorSettings,
    BalloonTask,
    DvfsActuator,
    IdleInjector,
    LevelTable,
    QuantizedActuator,
    SYS1,
    SYS2,
    SYS3,
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


#: Every platform, plus one whose idle injector has a single level (a
#: zero-span actuator, which normalize() maps to 0.0).
BANKS = [ActuatorBank(spec) for spec in (SYS1, SYS2, SYS3)] + [
    ActuatorBank(replace(SYS1, name="sys1-no-idle", idle_max=0.0))
]


def _tie_fractions(actuator):
    """Normalized commands at, and one ulp around, each level midpoint."""
    span = actuator.max_level - actuator.min_level
    if abs(span) < 1e-12:
        return [0.5]
    middles = (actuator.levels[:-1] + actuator.levels[1:]) / 2.0
    exact = (middles - actuator.min_level) / span
    return np.concatenate(
        [exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf)]
    ).tolist()


def _command(draw, actuator):
    return draw(
        st.one_of(
            st.floats(min_value=-0.5, max_value=1.5),
            st.sampled_from(_tie_fractions(actuator)),
            st.sampled_from([0.0, -0.0, 1.0, float("nan"), -2.0, 3.0]),
        )
    )


@st.composite
def command_rows(draw):
    """A bank and a ``(B, 3)`` block of normalized commands for it."""
    bank = draw(st.sampled_from(BANKS))
    n_rows = draw(st.integers(min_value=1, max_value=12))
    rows = [
        [_command(draw, actuator) for actuator in bank.actuators]
        for _ in range(n_rows)
    ]
    return bank, np.array(rows, dtype=float)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestVectorizedQuantization:
    """The stacked ``(3, L)`` level table against the per-actuator scalar path."""

    @given(command_rows())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_scalar_quantize_normalized(self, case):
        bank, fractions = case
        levels = bank.quantize_normalized_many(fractions)
        assert levels.shape == fractions.shape
        for row, command in zip(levels, fractions):
            expected = bank.quantize_normalized(command)
            assert np.array_equal(_bits(row), _bits(expected.as_vector()))
            assert np.array_equal(
                _bits(bank.normalize_many(row[None, :])[0]),
                _bits(bank.normalize(expected)),
            )

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ActuatorBank(SYS1).quantize_normalized_many(np.zeros(3))

    @given(command_rows())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_scalar_normalize(self, case):
        # normalize_many on arbitrary values, +-0.0 and NaN included: each
        # element equals its actuator's scalar normalize, bit for bit.
        bank, values = case
        normalized = bank.normalize_many(values)
        for row, value_row in zip(normalized, values):
            expected = [
                actuator.normalize(value)
                for actuator, value in zip(bank.actuators, value_row)
            ]
            assert np.array_equal(_bits(row), _bits(expected))

    def test_thresholds_split_adjacent_levels_exactly(self):
        # Each threshold is the least fraction the scalar quantizer maps to
        # its level: one float below it maps to the level beneath.
        for bank in BANKS:
            bank.quantize_index_many(np.zeros((1, 3)))
            for column, actuator in enumerate(bank.actuators):
                for level, fraction in enumerate(bank._thresholds[column].tolist(), 1):
                    if level >= actuator.levels.size:
                        assert np.isnan(fraction)
                        continue
                    below = float(np.nextafter(fraction, -np.inf))
                    assert actuator.denormalize(fraction) == actuator.levels[level]
                    assert actuator.denormalize(below) == actuator.levels[level - 1]

    def test_joint_index_addresses_the_level_grid(self):
        bank = ActuatorBank(SYS1)
        grid = bank.level_grid()
        fractions = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.52, 0.26, 0.31]])
        index = bank.quantize_index_many(fractions)
        assert index.tolist()[:2] == [0, len(grid) - 1]
        for row, command in zip(index.tolist(), fractions):
            assert tuple(grid[row]) == tuple(bank.quantize_normalized(command))

    def test_exact_ties_are_generated_and_go_to_the_first_level(self):
        # The midpoint commands above include exact ties after clipping;
        # like np.argmin on one actuator, the table picks the lower level.
        ties = 0
        for bank in BANKS:
            for column, actuator in enumerate(bank.actuators):
                span = actuator.max_level - actuator.min_level
                for fraction in _tie_fractions(actuator):
                    value = min(
                        max(actuator.min_level + fraction * span, actuator.min_level),
                        actuator.max_level,
                    )
                    distance = np.abs(actuator.levels - value)
                    nearest = np.flatnonzero(distance == distance.min())
                    if nearest.size < 2:
                        continue
                    ties += 1
                    fractions = np.zeros((1, 3))
                    fractions[0, column] = fraction
                    quantized = bank.quantize_normalized_many(fractions)[0, column]
                    assert quantized == actuator.levels[nearest[0]]
        assert ties > 0



class TestLevelTable:
    def test_entries_are_the_scalar_values_computed_once(self):
        calls = []

        def scalar(level):
            calls.append(level)
            return level**0.7 + 1.0

        table = LevelTable([scalar, lambda level: -level])
        for levels in ([1.5, 1.2, 1.5, 2.0], [1.37, 2.0, 1.2], [2.0, 2.0]):
            levels = np.array(levels)
            columns = table.columns(levels)
            assert table.values[0, columns].tolist() == [
                level**0.7 + 1.0 for level in levels.tolist()
            ]
            assert table.values[1, columns].tolist() == (-levels).tolist()
        # Each distinct level was tabulated once, the off-grid 1.37 too.
        assert sorted(calls) == [1.2, 1.37, 1.5, 2.0]
        assert table.levels[:-1].tolist() == [1.2, 1.37, 1.5, 2.0]
