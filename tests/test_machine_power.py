"""Tests for repro.machine.power — the activity->power coupling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

from repro.machine import (
    ActuatorBank,
    ActuatorSettings,
    JointLevels,
    PowerModel,
    SYS1,
    batch_window_power,
    draw_noise,
    spawn,
)
from repro.machine.power import first_order_columns, first_order_rows


def make_model(key="pm"):
    return PowerModel(SYS1, spawn(99, key))


class TestDvfsScale:
    def test_unity_at_max_frequency(self):
        assert make_model().dvfs_scale(SYS1.freq_max_ghz) == pytest.approx(1.0)

    def test_monotone_in_frequency(self):
        model = make_model()
        scales = [model.dvfs_scale(f) for f in SYS1.freq_levels_ghz]
        assert all(b > a for a, b in zip(scales, scales[1:]))

    def test_min_scale_reflects_f_v_squared(self):
        model = make_model()
        expected = (
            SYS1.freq_min_ghz * SYS1.volt_min**2
        ) / (SYS1.freq_max_ghz * SYS1.volt_max**2)
        assert model.dvfs_scale(SYS1.freq_min_ghz) == pytest.approx(expected)


class TestAppPower:
    def test_scales_with_activity(self):
        model = make_model()
        low = model.app_power(0.2, 1.0, SYS1.freq_max_ghz, 0.0)
        high = model.app_power(0.8, 1.0, SYS1.freq_max_ghz, 0.0)
        assert high == pytest.approx(4 * low)

    def test_full_activity_hits_platform_maximum(self):
        model = make_model()
        power = model.app_power(1.0, 1.0, SYS1.freq_max_ghz, 0.0)
        assert power == pytest.approx(SYS1.max_app_dynamic_w)

    def test_idle_injection_reduces_power_partially(self):
        # powerclamp's power effect is sub-proportional (IDLE_POWER_EFFECTIVENESS).
        model = make_model()
        base = model.app_power(0.5, 1.0, SYS1.freq_max_ghz, 0.0)
        clamped = model.app_power(0.5, 1.0, SYS1.freq_max_ghz, 0.48)
        assert clamped == pytest.approx(base * (1 - 0.7 * 0.48))


class TestBalloonPower:
    def test_full_power_on_empty_machine(self):
        model = make_model()
        power = model.balloon_power(1.0, SYS1.freq_max_ghz, 0.0, app_core_fraction=0.0)
        assert power == pytest.approx(SYS1.max_balloon_dynamic_w)

    def test_smt_sharing_reduces_authority_under_loaded_app(self):
        # On a fully-occupied machine the balloon only gets the spare SMT
        # slots: its authority shrinks to SMT_BALLOON_SHARE.
        model = make_model()
        free = model.balloon_power(1.0, SYS1.freq_max_ghz, 0.0, app_core_fraction=0.0)
        shared = model.balloon_power(1.0, SYS1.freq_max_ghz, 0.0, app_core_fraction=1.0)
        assert shared == pytest.approx(free * PowerModel.SMT_BALLOON_SHARE)

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    @settings(max_examples=30)
    def test_balloon_power_nonnegative_and_bounded(self, level, q):
        model = make_model()
        p = model.balloon_power(level, SYS1.freq_max_ghz, 0.0, q)
        assert 0.0 <= p <= SYS1.max_balloon_dynamic_w + 1e-9


def window_noise(model, n_ticks):
    """The AR(1) process noise of one window: with zero activity and no
    balloon, ``window_power`` is the static power plus the noise."""
    freq_ghz = SYS1.freq_max_ghz
    power_w = model.window_power(np.zeros(n_ticks), 0.0, freq_ghz, 0.0, 0.0)
    return power_w - model.static_power(freq_ghz)


class TestNoise:
    def test_process_noise_is_stateful_ar1(self):
        model = make_model()
        first = window_noise(model, 500)
        second = window_noise(model, 500)
        # AR(1) continuity: the second window continues near the first's end.
        assert abs(second[0] - PowerModel.NOISE_RHO * first[-1]) < 4 * SYS1.process_noise_w

    def test_process_noise_stationary_std(self):
        model = make_model()
        noise = window_noise(model, 60_000)
        assert noise.std() == pytest.approx(SYS1.process_noise_w, rel=0.15)

    def test_process_noise_autocorrelated(self):
        model = make_model()
        noise = window_noise(model, 30_000)
        corr = np.corrcoef(noise[:-1], noise[1:])[0, 1]
        assert corr > 0.9

    def test_empty_window(self):
        model = make_model()
        window_noise(model, 10)
        state = model._noise_state
        rng_state = model._rng.bit_generator.state
        assert window_noise(model, 0).size == 0
        assert model._noise_state == state
        assert model._rng.bit_generator.state == rng_state

    def test_zero_tick_batch_returns_empty_rows(self):
        models = [make_model("a"), make_model("b")]
        rng_states = [model._rng.bit_generator.state for model in models]
        noise_w, _ = draw_noise(models, [], 1, 0)
        levels = JointLevels(ActuatorBank(SYS1))
        window_w = batch_window_power(
            models[0], np.empty((2, 0)), np.empty((2, 0)), levels,
            np.array([levels.index((1.6, 0.1, 0.3))] * 2), noise_w,
        )
        assert window_w.shape == (2, 0)
        assert [model._noise_state for model in models] == [0.0, 0.0]
        assert [model._rng.bit_generator.state for model in models] == rng_states


def thermal_coefficients(time_constant_s, tick_s):
    """The ``(gain, pole)`` pair ``ThermalModel.advance`` filters with."""
    alpha = float(np.exp(-tick_s / time_constant_s))
    return 1.0 - alpha, alpha


#: Every ``(gain, pole)`` pair the package filters with: the AR(1) power
#: noise, and the thermal node at several time constants and tick lengths.
COEFFICIENTS = st.one_of(
    st.just((1.0, PowerModel.NOISE_RHO)),
    st.builds(
        thermal_coefficients,
        st.sampled_from([0.5, 2.0, 8.0, 60.0]),
        st.sampled_from([1e-4, 1e-3, 0.02, 0.1]),
    ),
)

#: Signed zeros, negatives and magnitudes up to the largest double.
EDGE_VALUES = np.array(
    [0.0, -0.0, -1.0, 1e300, -1e300, np.finfo(float).max, -np.finfo(float).max]
)


@st.composite
def signal_blocks(draw):
    """A ``(B, T)`` input block and B starting levels, B 1-40 and T 0-60.

    A seeded normal block at one of several magnitudes, with a drawn share
    of its entries (and of the levels) replaced by :data:`EDGE_VALUES`.
    """
    rng = spawn(draw(st.integers(0, 2**32 - 1)), "signal")
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]))
    edge_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    n_rows, n_ticks = draw(st.integers(1, 40)), draw(st.integers(0, 60))
    inputs = rng.normal(0.0, scale, size=(n_rows, n_ticks))
    levels = rng.normal(0.0, scale, size=n_rows)
    for values in (inputs, levels):
        edges = rng.random(values.shape) < edge_share
        values[edges] = rng.choice(EDGE_VALUES, size=int(edges.sum()))
    return inputs, levels


def assert_matches_lfilter(gain, pole, inputs, levels):
    """Outputs and carried state of :func:`first_order_rows` and of the
    time-major :func:`first_order_columns` equal ``lfilter``'s bit for bit
    (the oracle carries ``z = pole * y``)."""
    expected, carried = lfilter(
        [gain], [1.0, -pole], inputs, axis=-1, zi=(pole * levels)[:, None]
    )
    row_major = first_order_rows(gain, pole, inputs.tolist(), levels.tolist())
    time_major = first_order_columns(gain, pole, inputs, levels)
    for outputs, last in (row_major, time_major):
        assert outputs.shape == expected.shape
        assert outputs.tobytes() == expected.tobytes()
        if inputs.shape[1] == 0:
            # lfilter leaves zf unset for an empty axis; the levels carry over.
            assert np.array(last).tobytes() == levels.tobytes()
        else:
            assert np.array(last).tobytes() == expected[:, -1].tobytes()
            assert (pole * np.array(last)).tobytes() == carried[:, 0].tobytes()


class TestFirstOrderRows:
    """The first-order recursion, row by row and time-major, against
    SciPy's ``lfilter`` as oracle."""

    @given(COEFFICIENTS, signal_blocks())
    @settings(max_examples=300, deadline=None)
    def test_blocks_match_lfilter(self, coefficients, block):
        assert_matches_lfilter(*coefficients, *block)

    @given(
        COEFFICIENTS,
        st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_finite_values_match_lfilter(self, coefficients, rows, levels):
        # Arbitrary doubles, subnormals included, in short rows.
        assert_matches_lfilter(
            *coefficients, np.array(rows), np.array(levels[: len(rows)])
        )

    @pytest.mark.parametrize(
        "coefficients", [(1.0, PowerModel.NOISE_RHO), thermal_coefficients(8.0, 1e-3)]
    )
    def test_long_row_matches_lfilter(self, coefficients):
        # One constant-settings chunk: 512 intervals of 20 ticks.
        rng = spawn(5, "long row")
        assert_matches_lfilter(
            *coefficients, rng.normal(0.0, 1.0, size=(1, 10_240)), np.array([0.7])
        )

    def test_split_rows_carry_the_state_exactly(self):
        rng = spawn(6, "split rows")
        inputs = rng.normal(0.0, 1.0, size=(3, 40)).tolist()
        levels = [0.1, -0.2, 0.0]
        whole, last = first_order_rows(1.0, 0.98, inputs, levels)
        head, carried = first_order_rows(1.0, 0.98, [row[:17] for row in inputs], levels)
        tail, split_last = first_order_rows(1.0, 0.98, [row[17:] for row in inputs], carried)
        assert np.hstack([head, tail]).tobytes() == whole.tobytes()
        assert split_last == last


class TestWindowPower:
    def test_shape_and_positivity(self):
        model = make_model()
        power = model.window_power(np.full(100, 0.5), 1.0, 1.6, 0.1, 0.3)
        assert power.shape == (100,)
        assert np.all(power > 0)

    def test_mean_close_to_breakdown_total(self):
        model = make_model()
        power = model.window_power(np.full(20_000, 0.5), 1.0, 1.6, 0.1, 0.3)
        expected = model.breakdown(0.5, 1.0, 1.6, 0.1, 0.3).total_w
        assert power.mean() == pytest.approx(expected, rel=0.05)

    def test_deterministic_given_stream(self):
        a = make_model("same").window_power(np.full(50, 0.5), 1.0, 1.6, 0.0, 0.0)
        b = make_model("same").window_power(np.full(50, 0.5), 1.0, 1.6, 0.0, 0.0)
        assert np.array_equal(a, b)


class TestMemoization:
    def test_memo_hits_return_identical_values(self):
        model = make_model()
        assert model.dvfs_scale(1.6) == model.dvfs_scale(1.6)
        assert model.static_power(1.6) == model.static_power(1.6)
        assert model.idle_scale(0.3) == model.idle_scale(0.3)
        assert 1.6 in model._dvfs_scale_memo
        assert 1.6 in model._static_power_memo
        assert 0.3 in model._idle_scale_memo

    def test_memoization_does_not_change_window_power(self):
        """A model with warm per-operating-point memos draws the identical
        window to a cold one on the same RNG stream."""
        cold = make_model("memo")
        warm = make_model("memo")
        for freq_ghz in (0.8, 1.2, 1.6):
            warm.dvfs_scale(freq_ghz)
            warm.static_power(freq_ghz)
        for idle_frac in (0.0, 0.2, 0.5):
            warm.idle_scale(idle_frac)
        activity = np.full(200, 0.4)
        a = cold.window_power(activity, 0.9, 1.2, 0.2, 0.5)
        b = warm.window_power(activity, 0.9, 1.2, 0.2, 0.5)
        assert np.array_equal(a, b)


class TestOperatingPointTable:
    def test_entries_are_the_scalar_values(self):
        """Every grid row, and an appended off-grid triple, gathers the bits
        of the scalar methods' expressions."""
        model = make_model()
        levels = JointLevels(ActuatorBank(SYS1))
        off_grid = levels.index((1.963, 0.37, 0.55))
        points = model.operating_points(levels)
        assert points.shape == (3, levels.n_grid + 1) and off_grid == levels.n_grid
        for index, (freq_ghz, idle_frac, balloon_level) in enumerate(levels.triples.tolist()):
            expected = [
                model.dvfs_scale(freq_ghz) * model.idle_scale(idle_frac),
                model.static_power(freq_ghz),
                SYS1.max_balloon_dynamic_w * balloon_level,
            ]
            assert bits(points[:, index]).tolist() == bits(expected).tolist()

    def test_table_grows_with_the_levels(self):
        model = make_model()
        levels = JointLevels(ActuatorBank(SYS1))
        points = model.operating_points(levels)
        assert model.operating_points(levels) is points
        index = levels.index((1.25, 0.5, 0.05))
        grown = model.operating_points(levels)
        assert grown.shape == (3, len(levels))
        assert np.array_equal(bits(grown[:, :index]), bits(points))
        fresh = make_model().operating_points(levels)
        assert np.array_equal(bits(grown), bits(fresh))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestRange:
    def test_min_below_max(self):
        model = make_model()
        assert model.min_achievable_power() < model.max_achievable_power()

    def test_max_is_balloon_only_ceiling(self):
        model = make_model()
        expected = model.static_power(SYS1.freq_max_ghz) + SYS1.max_balloon_dynamic_w
        assert model.max_achievable_power() == pytest.approx(expected)
