"""Tests for repro.analysis.changepoint (PELT)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import changepoint_times, pelt
from repro.analysis.changepoint import SegmentCost


def _serial_pelt(signal, penalty=None, min_size=5):
    """The scalar PELT loop that ``pelt`` vectorizes, kept as its oracle."""
    signal = np.asarray(signal, dtype=float).reshape(-1)
    n = signal.size
    if n < 2 * min_size:
        return []
    if penalty is None:
        penalty = 3.0 * np.log(n)

    cost = SegmentCost(signal)
    # f[t]: optimal cost of signal[0:t]; partial candidate set per PELT.
    f = np.full(n + 1, np.inf)
    f[0] = -penalty
    last_change = np.zeros(n + 1, dtype=int)
    candidates = [0]

    for t in range(min_size, n + 1):
        best_cost = np.inf
        best_s = 0
        costs = {}
        for s in candidates:
            if t - s < min_size:
                continue
            c = f[s] + cost.cost(s, t) + penalty
            costs[s] = c
            if c < best_cost:
                best_cost = c
                best_s = s
        if not np.isfinite(best_cost):
            continue
        f[t] = best_cost
        last_change[t] = best_s
        # PELT pruning: a candidate whose cost already exceeds the best
        # (minus the penalty it could still save) can never win later.
        candidates = [
            s for s in candidates
            if costs.get(s, f[s]) - penalty <= best_cost
        ]
        candidates.append(t)

    changepoints = []
    t = n
    while t > 0:
        s = last_change[t]
        if s == 0:
            break
        changepoints.append(s)
        t = s
    return sorted(changepoints)


@st.composite
def piecewise_signals(draw):
    """1-6 Gaussian segments; some constant (on the MIN_VAR floor), and
    some signals rounded to one decimal, so values repeat."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = []
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.integers(1, 60))
        level = float(rng.normal(0.0, 3.0))
        if draw(st.booleans()):
            segments.append(np.full(length, level))
        else:
            segments.append(rng.normal(level, rng.uniform(0.05, 3.0), length))
    signal = np.concatenate(segments)
    return np.round(signal, 1) if draw(st.booleans()) else signal


class TestSegmentCost:
    def test_cost_additive_structure(self):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=100)
        cost = SegmentCost(signal)
        # Cost of a segment equals n*log(var) computed directly.
        seg = signal[10:40]
        expected = seg.size * np.log(max(seg.var(), SegmentCost.MIN_VAR))
        assert cost.cost(10, 40) == pytest.approx(expected)

    def test_constant_segment_uses_floor(self):
        cost = SegmentCost(np.full(50, 3.0))
        assert np.isfinite(cost.cost(0, 50))

    def test_costs_match_scalar_expression_bitwise(self):
        # Element by element the serial float64 expression, including the
        # scalar ``** 2`` (libm pow), which an array square can miss by an ulp.
        rng = np.random.default_rng(10)
        signal = rng.normal(0.0, 3.0, 300)
        cost = SegmentCost(signal)
        cum = np.concatenate([[0.0], np.cumsum(signal)])
        cum2 = np.concatenate([[0.0], np.cumsum(signal**2)])
        for end in range(1, signal.size + 1):
            starts = np.arange(end)
            expected = []
            for start in starts:
                length = end - int(start)
                total = cum[end] - cum[start]
                total2 = cum2[end] - cum2[start]
                var = max(total2 / length - (total / length) ** 2, SegmentCost.MIN_VAR)
                expected.append(length * np.log(var))
            assert cost.costs(starts, end).tobytes() == np.array(expected).tobytes()

    @given(piecewise_signals(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cost_is_one_element_costs(self, signal, data):
        cost = SegmentCost(signal)
        end = data.draw(st.integers(1, signal.size))
        start = data.draw(st.integers(0, end - 1))
        one = cost.costs(np.array([start]), end)[0]
        assert np.float64(cost.cost(start, end)).tobytes() == one.tobytes()


class TestPelt:
    def test_single_mean_shift(self):
        rng = np.random.default_rng(1)
        signal = np.concatenate([rng.normal(0, 1, 200), rng.normal(6, 1, 200)])
        cps = pelt(signal)
        assert len(cps) == 1
        assert abs(cps[0] - 200) <= 5

    def test_variance_shift_detected(self):
        rng = np.random.default_rng(2)
        signal = np.concatenate([rng.normal(0, 0.5, 300), rng.normal(0, 4.0, 300)])
        cps = pelt(signal)
        assert any(abs(cp - 300) <= 15 for cp in cps)

    def test_no_changepoints_in_stationary_noise(self):
        rng = np.random.default_rng(3)
        assert pelt(rng.normal(0, 1, 600)) == []

    def test_multiple_shifts(self):
        rng = np.random.default_rng(4)
        signal = np.concatenate(
            [rng.normal(m, 0.8, 150) for m in (0, 5, -3, 4)]
        )
        cps = pelt(signal)
        assert len(cps) == 3
        for true_cp in (150, 300, 450):
            assert min(abs(cp - true_cp) for cp in cps) <= 5

    def test_penalty_controls_sensitivity(self):
        rng = np.random.default_rng(5)
        signal = np.concatenate([rng.normal(m, 1.0, 100) for m in (0, 1.2, 0, 1.2)])
        loose = pelt(signal, penalty=2.0)
        strict = pelt(signal, penalty=200.0)
        assert len(loose) >= len(strict)

    def test_short_signal_returns_empty(self):
        assert pelt(np.ones(5)) == []

    def test_min_size_respected(self):
        rng = np.random.default_rng(6)
        signal = np.concatenate([rng.normal(0, 1, 100), rng.normal(8, 1, 100)])
        cps = pelt(signal, min_size=30)
        assert all(cp >= 30 and cp <= signal.size - 30 for cp in cps)
        assert all(b - a >= 30 for a, b in zip([0] + cps, cps + [signal.size]))

    def test_changepoint_times_scaling(self):
        rng = np.random.default_rng(7)
        signal = np.concatenate([rng.normal(0, 1, 200), rng.normal(6, 1, 200)])
        times = changepoint_times(signal, interval_s=0.02)
        assert times.size == 1
        assert times[0] == pytest.approx(4.0, abs=0.2)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_detection_invariant_to_level_shift(self, offset):
        rng = np.random.default_rng(8)
        signal = np.concatenate([rng.normal(0, 1, 150), rng.normal(5, 1, 150)])
        assert pelt(signal + offset) == pelt(signal)

    def test_exactness_against_bruteforce_single_split(self):
        """PELT must find the same optimum as exhaustive single-split search
        when the penalty forces at most one change point."""
        rng = np.random.default_rng(9)
        signal = np.concatenate([rng.normal(0, 1, 60), rng.normal(3, 1, 60)])
        cost = SegmentCost(signal)
        penalty = 30.0
        n = signal.size
        best = (cost.cost(0, n), [])
        for split in range(5, n - 5):
            total = cost.cost(0, split) + cost.cost(split, n) + penalty
            if total < best[0]:
                best = (total, [split])
        assert pelt(signal, penalty=penalty, min_size=5) == best[1]

    def test_pruning_can_miss_the_optimum(self):
        """The documented gap: with min_size > 1, PELT's pruning drops the
        optimal segmentation of this signal (exhaustive search below)."""
        signal = np.array([-0.3, 0.2, 0.1, -1.3, -0.9, -0.9, -2.1])
        cost = SegmentCost(signal)
        n, min_size = signal.size, 2
        penalty = 3.0 * np.log(n)

        def total(cps):
            bounds = [0, *cps, n]
            return sum(cost.cost(a, b) for a, b in zip(bounds, bounds[1:])) + penalty * len(cps)

        admissible = [
            list(cps)
            for k in range(n // min_size)
            for cps in itertools.combinations(range(1, n), k)
            if all(b - a >= min_size for a, b in zip((0, *cps), (*cps, n)))
        ]
        optimum = min(admissible, key=total)
        found = pelt(signal, min_size=min_size)
        assert found == [4] and optimum == [3]
        assert total(found) > total(optimum) + 1.0

    @pytest.mark.parametrize(
        "signal, penalty, min_size, expected",
        [
            ([1, 2, 0, 2, 1], 1.0, 2, [2]),
            ([0, 2, 0, 1, 2, 2, 1, 0, 0, 2], 2.0, 3, [3, 6]),
            ([2, 2, 2, 1, 1, 0, 1, 1, 0, 0, 0, 0], 18.0, 2, [3, 5, 8]),
            ([0, 0, 1, 0, 2, 0, 1, 2, 2, 1, 1, 1], 1.0, 2, [2, 4, 7, 9]),
        ],
    )
    def test_exact_ties_go_to_the_earliest_candidate(
        self, signal, penalty, min_size, expected
    ):
        # Small integers make the cumulative sums exact, so two
        # segmentations can score bit-for-bit the same.
        signal = np.asarray(signal, dtype=float)
        assert pelt(signal, penalty, min_size) == expected
        assert _serial_pelt(signal, penalty, min_size) == expected

    @given(
        piecewise_signals(),
        st.integers(1, 30),
        st.none() | st.floats(0.1, 60.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_serial_scan(self, signal, min_size, penalty):
        assert pelt(signal, penalty, min_size) == _serial_pelt(signal, penalty, min_size)
