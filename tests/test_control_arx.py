"""Tests for repro.control.arx (Equation 3 models and fitting)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control import ArxModel, fit_arx, fit_arx_records


def simulate_arx(model: ArxModel, u: np.ndarray, noise=None) -> np.ndarray:
    """Reference simulation used to validate fitting."""
    na, nb = model.na, model.nb
    y = np.zeros(u.shape[0])
    for t in range(u.shape[0]):
        acc = 0.0
        for i in range(1, na + 1):
            if t - i >= 0:
                acc += model.a_coeffs[i - 1] * y[t - i]
        for j in range(nb):
            if t - j >= 0:
                acc += float(model.b_coeffs[j] @ u[t - j])
        y[t] = acc + (noise[t] if noise is not None else 0.0)
    return y


def true_model():
    return ArxModel(
        a_coeffs=[0.6, -0.1],
        b_coeffs=[[0.4, -0.2], [0.1, 0.05]],
    )


class TestArxModel:
    def test_orders(self):
        model = true_model()
        assert (model.na, model.nb, model.n_inputs) == (2, 2, 2)

    def test_dc_gain(self):
        model = true_model()
        expected = (model.b_coeffs.sum(axis=0)) / (1 - 0.6 + 0.1)
        assert np.allclose(model.dc_gain(), expected)

    def test_dc_gain_integrator_raises(self):
        model = ArxModel([1.0], [[1.0]])
        with pytest.raises(ZeroDivisionError):
            model.dc_gain()

    def test_predict_matches_simulation(self):
        model = true_model()
        rng = np.random.default_rng(0)
        u = rng.normal(size=(50, 2))
        y = simulate_arx(model, u)
        t = 30
        pred = model.predict(y[t - 2:t][::-1], np.stack([u[t], u[t - 1]]))
        assert pred == pytest.approx(y[t], abs=1e-9)

    def test_predict_record_matches_predict(self):
        model = ArxModel(a_coeffs=[0.6, -0.1, 0.05], b_coeffs=[[0.4, -0.2], [0.1, 0.05]])
        rng = np.random.default_rng(2)
        u = rng.normal(size=(40, 2))
        y = simulate_arx(model, u, noise=rng.normal(scale=0.1, size=40))
        expected = [
            model.predict(y[t - 3:t][::-1], np.stack([u[t], u[t - 1]])) for t in range(3, 40)
        ]
        assert np.allclose(model.predict_record(y, u), expected, rtol=0, atol=1e-12)

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            ArxModel([], [[1.0]])


class TestStateSpaceRealization:
    def test_simulation_matches_arx_recursion(self):
        model = true_model()
        rng = np.random.default_rng(1)
        u = rng.normal(size=(60, 2))
        direct = simulate_arx(model, u)
        via_ss = model.simulate(u)
        assert np.allclose(direct, via_ss, atol=1e-9)

    def test_dimension(self):
        # na + (nb-1) * n_inputs = 2 + 1*2.
        assert true_model().to_statespace().n_states == 4

    def test_feedthrough_is_b1(self):
        ss = true_model().to_statespace()
        assert np.allclose(ss.d, [[0.4, -0.2]])


class TestFitting:
    def test_recovers_known_model_noiseless(self):
        model = true_model()
        rng = np.random.default_rng(2)
        u = rng.normal(size=(400, 2))
        y = simulate_arx(model, u)
        fitted = fit_arx(y, u, na=2, nb=2)
        assert np.allclose(fitted.a_coeffs, model.a_coeffs, atol=1e-6)
        assert np.allclose(fitted.b_coeffs, model.b_coeffs, atol=1e-6)

    def test_recovers_known_model_with_noise(self):
        model = true_model()
        rng = np.random.default_rng(3)
        u = rng.normal(size=(5000, 2))
        noise = rng.normal(0, 0.02, size=5000)
        y = simulate_arx(model, u, noise)
        fitted = fit_arx(y, u, na=2, nb=2)
        assert np.allclose(fitted.a_coeffs, model.a_coeffs, atol=0.05)
        assert np.allclose(fitted.b_coeffs, model.b_coeffs, atol=0.05)

    def test_records_fit_pools_runs(self):
        model = true_model()
        rng = np.random.default_rng(4)
        records = []
        for _ in range(4):
            u = rng.normal(size=(150, 2))
            records.append((simulate_arx(model, u), u))
        fitted = fit_arx_records(records, na=2, nb=2)
        assert np.allclose(fitted.a_coeffs, model.a_coeffs, atol=1e-6)

    def test_too_short_record_rejected(self):
        with pytest.raises(ValueError):
            fit_arx(np.zeros(5), np.zeros((5, 2)), na=2, nb=2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_arx(np.zeros(50), np.zeros((40, 2)), na=2, nb=2)

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError):
            fit_arx(np.zeros(50), np.zeros((50, 2)), na=0, nb=2)

    def test_empty_record_list_rejected(self):
        with pytest.raises(ValueError):
            fit_arx_records([], na=2, nb=2)

    @given(
        st.floats(min_value=-0.8, max_value=0.8),
        st.floats(min_value=-2.0, max_value=2.0).filter(lambda b: abs(b) > 0.05),
    )
    @settings(max_examples=20, deadline=None)
    def test_recovers_scalar_models(self, a, b):
        model = ArxModel([a], [[b]])
        rng = np.random.default_rng(5)
        u = rng.normal(size=(300, 1))
        y = simulate_arx(model, u)
        fitted = fit_arx(y, u, na=1, nb=1)
        assert fitted.a_coeffs[0] == pytest.approx(a, abs=1e-6)
        assert fitted.b_coeffs[0, 0] == pytest.approx(b, abs=1e-6)
