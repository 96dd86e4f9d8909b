"""Tests for repro.control.synthesis (LQG servo design)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import linalg as scipy_linalg  # a test requirement: the solver's reference

from repro.control import SynthesisSpec, design_controller, identify_plant
from repro.control import synthesis
from repro.machine import SYS1, SYS2, SYS3, spawn


def relative_error(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


class TestSynthesisSpec:
    def test_defaults_match_paper(self):
        spec = SynthesisSpec()
        assert spec.input_weights == (1.0, 1.0, 1.0)
        assert spec.guardband == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"guardband": 1.0},
            {"guardband": -0.1},
            {"input_weights": (1.0, 0.0, 1.0)},
            {"output_weight": 0.0},
            {"integrator_weight": -1.0},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthesisSpec(**kwargs)


class TestDesignedController:
    def test_controller_dimension_is_paper_11(self, sys1_design):
        assert sys1_design.controller.n_states == 11

    def test_closed_loop_stable(self, sys1_design):
        assert sys1_design.controller.is_stable()

    def test_equation1_matrices_shape(self, sys1_design):
        eq1 = sys1_design.controller.as_equation1()
        assert eq1.n_states == 11
        assert eq1.n_inputs == 1   # the deviation e
        assert eq1.n_outputs == 3  # dvfs, idle, balloon commands

    def test_controller_storage_below_1kb(self, sys1_design):
        # Section VII-E: the controller needs less than 1 KB of storage.
        assert sys1_design.controller.as_equation1().storage_bytes() < 1024

    def test_closed_loop_tracks_step_offset_free(self, sys1_design):
        """Integral action: the nominal closed loop settles on the target."""
        cl = sys1_design.controller.closed_loop()
        outputs = cl.simulate(np.full((400, 1), 0.1))
        assert outputs[-1, 0] == pytest.approx(0.1, abs=0.005)

    def test_higher_guardband_lowers_gain(self, sys1_design):
        plant = sys1_design.plant
        tame = design_controller(plant, SynthesisSpec(guardband=0.6))
        sharp = design_controller(plant, SynthesisSpec(guardband=0.1))
        assert np.linalg.norm(tame.k_x) < np.linalg.norm(sharp.k_x)

    def test_kalman_gains_consistent(self, sys1_design):
        design = sys1_design.controller
        assert np.allclose(design.l_gain, design.plant_ss.a @ design.m_gain)

    def test_closed_loop_rejects_output_disturbance(self, sys1_design):
        """A step disturbance on the measurement is integrated away."""
        cl = sys1_design.controller.closed_loop()
        # r = 0 but y is biased: equivalent to tracking r = -bias; the loop
        # output converges, meaning the physical power converges to target.
        outputs = cl.simulate(np.concatenate([np.zeros((50, 1)), np.full((300, 1), 0.05)]))
        assert outputs[-1, 0] == pytest.approx(0.05, abs=0.005)


class TestRiccatiSolver:
    """The doubling solver against SciPy's ``solve_discrete_are``."""

    @pytest.fixture(scope="class", params=[SYS1, SYS2, SYS3], ids=lambda spec: spec.name)
    def plant(self, request):
        return identify_plant(request.param, seed=0, n_intervals=400)

    @pytest.mark.parametrize("guardband", [0.1, 0.4, 0.7])
    def test_design_equations_match_scipy(self, plant, guardband, monkeypatch):
        solved = []

        def recording(a, b, q, r):
            x = solve(a, b, q, r)
            solved.append((a, b, q, r, x))
            return x

        solve = synthesis._solve_dare
        monkeypatch.setattr(synthesis, "_solve_dare", recording)
        design_controller(plant, SynthesisSpec(guardband=guardband))
        assert len(solved) == 2  # the LQR and the Kalman equation
        for a, b, q, r, x in solved:
            reference = scipy_linalg.solve_discrete_are(a, b, q, r)
            assert relative_error(x, reference) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        radius=st.floats(0.1, 1.1),
    )
    def test_stabilizable_systems_match_scipy(self, n, m, seed, radius):
        """Well-conditioned draws: on weakly controllable, strongly unstable
        systems SciPy's own error exceeds the tolerance."""
        rng = spawn(seed, "dare-system")
        a = rng.uniform(-1.0, 1.0, (n, n))
        a *= radius / max(np.abs(np.linalg.eigvals(a)).max(), 1e-3)
        b = rng.uniform(-1.0, 1.0, (n, m))
        # Well controllable, hence stabilizable; Q > 0 makes (Q, A) detectable.
        ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
        singular = np.linalg.svd(ctrb, compute_uv=False)
        assume(singular[-1] >= 5e-2 * singular[0])
        c = rng.uniform(-1.0, 1.0, (n, n))
        q = c.T @ c + 1e-3 * np.eye(n)
        r = np.diag(rng.uniform(0.1, 10.0, m))
        x = synthesis._solve_dare(a, b, q, r)
        reference = scipy_linalg.solve_discrete_are(a, b, q, r)
        assert relative_error(x, reference) <= 1e-10

    @pytest.mark.parametrize(
        "a,b",
        [
            # An unstable mode no input reaches: the iterates overflow.
            (np.diag([2.0, 0.5]), np.array([[0.0], [1.0]])),
            # An unreached mode on the unit circle: the iterates never settle.
            (np.eye(1), np.zeros((1, 1))),
        ],
        ids=["unstable", "unit-circle"],
    )
    def test_unstabilizable_pair_raises(self, a, b):
        with pytest.raises(RuntimeError, match="stabilizable"):
            synthesis._solve_dare(a, b, np.eye(a.shape[0]), np.eye(b.shape[1]))
