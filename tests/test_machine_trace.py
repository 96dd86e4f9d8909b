"""Tests for repro.machine.trace."""

import numpy as np
import pytest

from repro.exec.cache import _load_pack, _pack_trace, _save_pack
from repro.machine import Trace


def make_trace(n_intervals=10, interval_s=0.02, tick_s=0.001, completed_at=np.nan):
    ticks = int(n_intervals * interval_s / tick_s)
    return Trace(
        workload="w",
        platform="sys1",
        defense="maya_gs",
        tick_s=tick_s,
        interval_s=interval_s,
        power_w=np.full(ticks, 20.0),
        measured_w=np.full(n_intervals, 20.0),
        target_w=np.concatenate([[np.nan], np.full(n_intervals - 1, 21.0)]),
        settings=np.tile([2.0, 0.0, 0.5], (n_intervals, 1)),
        completed_at_s=completed_at,
    )


class TestTrace:
    def test_duration(self):
        assert make_trace().duration_s == pytest.approx(0.2)

    def test_energy(self):
        trace = make_trace()
        assert trace.energy_j == pytest.approx(20.0 * 0.2)

    def test_average_power(self):
        assert make_trace().average_power_w == pytest.approx(20.0)

    def test_completed_flag(self):
        assert not make_trace().completed
        assert make_trace(completed_at=0.1).completed

    def test_tracking_error_skips_nan_targets(self):
        trace = make_trace(n_intervals=5)
        err = trace.tracking_error()
        assert err.size == 4
        assert np.allclose(err, 1.0)

    def test_summary_contents(self):
        summary = make_trace(completed_at=0.15).summary()
        assert summary["workload"] == "w"
        assert summary["defense"] == "maya_gs"
        assert summary["completed_at_s"] == pytest.approx(0.15)
        assert summary["mean_tracking_error_w"] == pytest.approx(1.0)

    def test_summary_incomplete_run(self):
        assert make_trace().summary()["completed_at_s"] is None


class TestEquals:
    def test_identical_traces_are_equal(self):
        assert make_trace().equals(make_trace())

    def test_nan_fields_compare_equal(self):
        # completed_at_s and the first target are NaN by construction.
        assert make_trace(completed_at=np.nan).equals(make_trace(completed_at=np.nan))

    def test_single_bit_difference_detected(self):
        a, b = make_trace(), make_trace()
        b.power_w[17] = np.nextafter(b.power_w[17], np.inf)
        assert not a.equals(b)

    def test_metadata_difference_detected(self):
        a = make_trace()
        b = make_trace()
        object.__setattr__(b, "defense", "baseline")
        assert not a.equals(b)

    def test_non_trace_is_not_equal(self):
        assert not make_trace().equals("not a trace")


def pack_round_trip(trace, path):
    """Write ``trace`` as a one-session pack and read it back."""
    _save_pack(path, ["k"], [trace])
    rows, columns = _load_pack(path)
    return _pack_trace(columns, rows["k"])


class TestNpzRoundTrip:
    """A trace's file format is the trace store's pack (an npz archive)."""

    def test_round_trip_is_bit_identical(self, tmp_path):
        trace = make_trace(completed_at=0.15)
        assert trace.equals(pack_round_trip(trace, tmp_path / "trace.npz"))

    def test_loaded_dtypes_are_float64(self, tmp_path):
        loaded = pack_round_trip(make_trace(), tmp_path / "trace.npz")
        for name in ("power_w", "measured_w", "target_w", "settings"):
            assert getattr(loaded, name).dtype == np.float64
