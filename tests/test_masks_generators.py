"""Tests for repro.masks (generators, base machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import spawn
from repro.masks import (
    MASK_FAMILIES,
    NHOLD_RANGE,
    ConstantMask,
    GaussianSinusoidMask,
    UniformRandomMask,
    make_mask,
)

RANGE = (10.0, 30.0)


def mask(family, key=0, **kwargs):
    return make_mask(family, RANGE, spawn(42, "mask-test", family, key), **kwargs)


class TestFactory:
    def test_all_families_instantiable(self):
        for family in MASK_FAMILIES:
            generator = mask(family)
            assert generator.generate(50).shape == (50,)

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            make_mask("square", RANGE, spawn(1, "x"))

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            make_mask("constant", (30.0, 10.0), spawn(1, "x"))


class TestBounds:
    @pytest.mark.parametrize("family", sorted(MASK_FAMILIES))
    def test_targets_always_within_band(self, family):
        # Section V-B: the target never exceeds TDP (the band's top).
        samples = mask(family).generate(3000)
        assert samples.min() >= RANGE[0] - 1e-9
        assert samples.max() <= RANGE[1] + 1e-9

    @given(st.sampled_from(sorted(MASK_FAMILIES)), st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_bounds_hold_across_streams(self, family, key):
        samples = mask(family, key).generate(500)
        assert samples.min() >= RANGE[0] - 1e-9
        assert samples.max() <= RANGE[1] + 1e-9


class TestConstantMask:
    def test_constant_value(self):
        samples = mask("constant").generate(100)
        assert np.allclose(samples, samples[0])

    def test_explicit_level(self):
        generator = mask("constant", level_w=22.0)
        assert generator.next_target() == 22.0

    def test_level_clipped_into_band(self):
        generator = ConstantMask(RANGE, spawn(1, "c"), level_w=99.0)
        assert generator.level_w == RANGE[1]


class TestSegmentation:
    def test_uniform_holds_levels(self):
        samples = mask("uniform").generate(2000)
        # A piecewise-constant signal has mostly zero differences.
        changes = np.count_nonzero(np.diff(samples))
        assert changes < 2000 / NHOLD_RANGE[0]

    def test_hold_lengths_within_paper_range(self):
        samples = mask("uniform").generate(5000)
        change_points = np.flatnonzero(np.diff(samples)) + 1
        holds = np.diff(np.concatenate([[0], change_points]))
        assert holds.min() >= NHOLD_RANGE[0]
        assert holds.max() <= NHOLD_RANGE[1]

    def test_reset_restarts_segment_schedule(self):
        generator = mask("uniform")
        generator.generate(100)
        generator.reset()
        # After a reset the first sample starts a fresh hold (no error).
        assert RANGE[0] <= generator.next_target() <= RANGE[1]

    def test_streams_are_reproducible(self):
        a = mask("gaussian_sinusoid", key=7).generate(200)
        b = mask("gaussian_sinusoid", key=7).generate(200)
        assert np.array_equal(a, b)

    def test_streams_differ_between_runs(self):
        # Section IV-C: every run must use fresh random numbers.
        a = mask("gaussian_sinusoid", key=1).generate(200)
        b = mask("gaussian_sinusoid", key=2).generate(200)
        assert not np.array_equal(a, b)

    def test_invalid_nhold_rejected(self):
        with pytest.raises(ValueError):
            UniformRandomMask(RANGE, spawn(1, "u"), nhold_range=(0, 5))

    @given(
        family=st.sampled_from(sorted(MASK_FAMILIES)),
        key=st.integers(min_value=0, max_value=50),
        cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_generate_equals_one_call(self, family, key, cuts):
        """``generate`` split at arbitrary points (segment boundaries, mid
        segment, empty calls) yields one call's bits and RNG state."""
        whole_mask = mask(family, key)
        whole = whole_mask.generate(300)
        split_mask = mask(family, key)
        parts, done = [], 0
        for point in sorted(cuts) + [300]:
            parts.append(split_mask.generate(point - done))
            done = point
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert split_mask._rng.bit_generator.state == whole_mask._rng.bit_generator.state


class TestGaussianSinusoid:
    def test_has_time_variation(self):
        samples = mask("gaussian_sinusoid").generate(1000)
        assert samples.std() > 0.03 * (RANGE[1] - RANGE[0])

    def test_sinusoid_period_respects_nyquist(self):
        # The implementation draws periods >= 2 samples; verify indirectly:
        # consecutive-sample jumps stay below the full range (no aliasing
        # into white noise).
        generator = GaussianSinusoidMask(RANGE, spawn(9, "gs"))
        samples = generator.generate(2000)
        jumps = np.abs(np.diff(samples))
        assert np.quantile(jumps, 0.95) < 0.8 * (RANGE[1] - RANGE[0])

    def test_mean_in_lower_half_of_band(self):
        # Offsets are drawn from the lower half (power savings, Fig. 14a).
        samples = mask("gaussian_sinusoid").generate(5000)
        midpoint = (RANGE[0] + RANGE[1]) / 2
        assert samples.mean() < midpoint
