"""Controller synthesis (Section V-A, "Designing the Controller").

The paper feeds the identified model plus three designer parameters — input
weights, an uncertainty guardband, and output-deviation bounds — into
MATLAB's robust-control tooling and obtains the constant (A, B, C, D)
matrices of Equation 1.  This module reproduces that flow with an LQG servo
design built from two discrete algebraic Riccati equations, solved here by
structured doubling in numpy:

* the identified ARX model is realized in state space;
* an output-error integrator is appended, guaranteeing offset-free tracking
  of the mask (the formal property the paper relies on);
* LQR state feedback is computed on the augmented system, with the paper's
  *input weights* as the control-cost diagonal;
* a Kalman filter estimates the plant state from the measured deviation;
* the *uncertainty guardband* detunes the control cost, trading tracking
  bandwidth for robustness to model error exactly the way the paper's 40%
  guardband widens its deviation bounds.

The result is packaged both as the explicit LQG pieces (used by the runtime
for anti-windup) and as the closed Equation-1 matrices (used to report the
controller's size and per-step cost, Section VII-E).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statespace import StateSpace
from .sysid import PlantModel

__all__ = ["SynthesisSpec", "DesignedController", "design_controller"]


@dataclass(frozen=True)
class SynthesisSpec:
    """Designer parameters of Section II-C / V-A."""

    #: Relative cost of moving each input (DVFS, idle, balloon).  The paper
    #: sets all to 1 because the actuation overheads are similar.
    input_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    #: Uncertainty guardband in [0, 1); 0.4 reproduces the paper's choice.
    guardband: float = 0.4
    #: Weight on the instantaneous output deviation.
    output_weight: float = 4.0
    #: Weight on the integrated output deviation (drives offset-free
    #: tracking; higher values track faster masks more tightly).
    integrator_weight: float = 8.0
    #: Assumed measurement-noise variance (normalized units) for the
    #: Kalman filter.
    measurement_noise: float = 4e-4
    #: Assumed process-noise intensity entering through the inputs.
    process_noise: float = 2e-2

    def __post_init__(self) -> None:
        if not 0.0 <= self.guardband < 1.0:
            raise ValueError("guardband must be in [0, 1)")
        if any(w <= 0 for w in self.input_weights):
            raise ValueError("input weights must be positive")
        if self.output_weight <= 0 or self.integrator_weight <= 0:
            raise ValueError("output and integrator weights must be positive")


@dataclass(frozen=True)
class DesignedController:
    """The synthesized controller: explicit LQG pieces plus metadata."""

    plant: PlantModel
    spec: SynthesisSpec
    #: Plant realization the design used.
    plant_ss: StateSpace
    #: State-feedback gains: u = -k_x x_hat - k_z z  (normalized units).
    k_x: np.ndarray
    k_z: np.ndarray
    #: Kalman *filter* gain (measurement update): x_f = x_pred + m_gain @ innovation.
    m_gain: np.ndarray
    #: Kalman *predictor* gain: l = A @ m_gain.
    l_gain: np.ndarray

    @property
    def n_states(self) -> int:
        """Controller state dimension: estimator states + integrator."""
        return self.plant_ss.n_states + 1

    def as_equation1(self) -> StateSpace:
        """Fold the LQG servo into the (A, B, C, D) form of Equation 1.

        The controller input is the output deviation e(T) = r - y(T) and
        the output is the (centered, normalized) command that will be
        applied during the *next* interval — the timing of the deployed
        loop.  Controller state is [x_hat_pred; z].  The runtime of
        :class:`~repro.control.controller.MatrixController` computes these
        exact recurrences explicitly so it can insert saturation and
        anti-windup; this closed form is the artifact a firmware
        implementation would store.
        """
        a_p, b_p, c_p, d_p = (
            self.plant_ss.a,
            self.plant_ss.b,
            self.plant_ss.c,
            self.plant_ss.d,
        )
        m, kx, kz = self.m_gain, self.k_x, self.k_z
        n = a_p.shape[0]
        am = a_p @ m

        # Nominal previous command: u_prev = -kx x_pred - kz z.
        # innovation = -e - (c_p - d_p kx) x_pred + d_p kz z
        # x_pred(+) = (a_p - am c_p + am d_p kx - b_p kx) x_pred
        #             + (am d_p - b_p) kz z - am e
        top_left = a_p - am @ c_p + am @ d_p @ kx - b_p @ kx
        top_right = (am @ d_p - b_p) @ kz
        a_k = np.block([[top_left, top_right], [np.zeros((1, n)), np.ones((1, 1))]])
        b_k = np.vstack([-am, np.ones((1, 1))])
        # u(T) = -kx x_pred(T+1) - kz z(T+1)
        c_k = np.hstack([-kx @ top_left, -kx @ top_right - kz])
        d_k = kx @ am - kz
        return StateSpace(a_k, b_k, c_k, d_k)

    def closed_loop(self) -> StateSpace:
        """Nominal closed loop from the mask target r to the plant output y.

        Models the deployed timing: the command emitted at step T drives
        the plant during interval T+1 (a one-step input delay), so no
        algebraic loop exists despite both plant and controller having
        direct feedthrough.
        """
        plant = self.plant_ss
        ctrl = self.as_equation1()
        n_p, n_c, k = plant.n_states, ctrl.n_states, plant.n_inputs

        # States: [x_p; x_u (delayed command); x_c].
        n_total = n_p + k + n_c
        a_cl = np.zeros((n_total, n_total))
        b_cl = np.zeros((n_total, 1))

        # y(T) = C_p x_p + D_p x_u ; e = r - y ;
        # u(T) = C_c x_c + D_c e.
        y_row = np.zeros((1, n_total))
        y_row[0, :n_p] = plant.c
        y_row[0, n_p:n_p + k] = plant.d
        e_row = -y_row
        u_rows = np.zeros((k, n_total))
        u_rows[:, n_p + k:] = ctrl.c
        u_rows += ctrl.d @ e_row
        u_from_r = ctrl.d

        a_cl[:n_p, :n_p] = plant.a
        a_cl[:n_p, n_p:n_p + k] = plant.b
        a_cl[n_p:n_p + k, :] = u_rows
        b_cl[n_p:n_p + k, :] = u_from_r
        # x_c(+) = A_c x_c + B_c e
        a_cl[n_p + k:, n_p + k:] = ctrl.a
        a_cl[n_p + k:, :] += ctrl.b @ e_row
        b_cl[n_p + k:, :] = ctrl.b

        return StateSpace(a_cl, b_cl, y_row, np.zeros((1, 1)))

    def is_stable(self) -> bool:
        return self.closed_loop().is_stable()


#: Doubling steps before :func:`_solve_dare` gives up.  Each step squares
#: the closed loop's spectral radius, so the designs here settle in 7-8.
_DARE_MAX_STEPS = 64
#: Relative change of the iterate at which the doubling stops.
_DARE_STEP_TOL = 1e-14
#: Largest accepted relative residual of the returned solution.
_DARE_RESIDUAL_TOL = 1e-10


def _solve_dare(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stabilizing solution X of ``X = A'XA - A'XB (R + B'XB)^-1 B'XA + Q``.

    The structured doubling algorithm: from ``A_0 = A``, ``G_0 = B R^-1 B'``
    and ``H_0 = Q``, each step with ``W = I + G_k H_k`` sets
    ``A_k+1 = A_k W^-1 A_k``, ``G_k+1 = G_k + A_k W^-1 G_k A_k'`` and
    ``H_k+1 = H_k + A_k' H_k W^-1 A_k``.  ``H_k`` converges quadratically to
    X when (A, B) is stabilizable and (Q, A) detectable.  The iteration
    stops once no entry of ``H`` moves by more than :data:`_DARE_STEP_TOL`
    of its largest entry; the result must then satisfy the equation to
    :data:`_DARE_RESIDUAL_TOL` of the summed norms of its four terms (the
    relative residual).  Raises :class:`RuntimeError` on non-finite
    iterates, on no convergence within :data:`_DARE_MAX_STEPS` steps (an
    unstabilizable pair never settles) and on a larger residual.
    """
    n = a.shape[0]
    eye = np.eye(n)
    a_k = a
    g_k = b @ np.linalg.solve(r, b.T)
    h_k = q
    # A diverging iteration overflows; the finiteness check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_DARE_MAX_STEPS):
            w_inv = np.linalg.solve(eye + g_k @ h_k, np.hstack([a_k, g_k]))
            w_inv_a, w_inv_g = w_inv[:, :n], w_inv[:, n:]
            g_next = g_k + a_k @ w_inv_g @ a_k.T
            h_next = h_k + a_k.T @ h_k @ w_inv_a
            a_k = a_k @ w_inv_a
            g_k = (g_next + g_next.T) / 2.0
            h_next = (h_next + h_next.T) / 2.0
            if not (np.isfinite(a_k).all() and np.isfinite(h_next).all()):
                raise RuntimeError("Riccati iteration diverged; is (A, B) stabilizable?")
            step = np.abs(h_next - h_k).max()
            h_k = h_next
            if step <= _DARE_STEP_TOL * np.abs(h_k).max():
                break
        else:
            raise RuntimeError(
                f"Riccati iteration did not converge in {_DARE_MAX_STEPS} steps; "
                "is (A, B) stabilizable?"
            )
        x = h_k
        x_b = x @ b
        terms = (
            a.T @ x @ a, x, q, a.T @ x_b @ np.linalg.solve(r + b.T @ x_b, x_b.T @ a)
        )
        residual = np.linalg.norm(terms[0] - terms[1] + terms[2] - terms[3])
    if not residual <= _DARE_RESIDUAL_TOL * sum(np.linalg.norm(term) for term in terms):
        raise RuntimeError("Riccati solution fails its residual check")
    return x


def design_controller(plant: PlantModel, spec: SynthesisSpec | None = None) -> DesignedController:
    """Synthesize the Maya controller for an identified plant."""
    if spec is None:
        spec = SynthesisSpec()
    plant_ss = plant.statespace()
    a_p, b_p, c_p, d_p = plant_ss.a, plant_ss.b, plant_ss.c, plant_ss.d
    n = plant_ss.n_states
    k = plant_ss.n_inputs

    # --- LQR with integral action -------------------------------------
    # Augmented state [x; z], z(T+1) = z(T) - y(T) (r = 0 for design).
    a_aug = np.block([[a_p, np.zeros((n, 1))], [-c_p, np.ones((1, 1))]])
    b_aug = np.vstack([b_p, -d_p])

    q_aug = np.zeros((n + 1, n + 1))
    q_aug[:n, :n] = spec.output_weight * (c_p.T @ c_p)
    q_aug[n, n] = spec.integrator_weight
    q_aug += 1e-9 * np.eye(n + 1)

    # The guardband detunes the design: a 40% guardband multiplies the
    # input cost by 1/(1-0.4)^2, lowering gain (bandwidth) so that up to
    # ~40% multiplicative model error cannot destabilize the loop.
    detune = 1.0 / (1.0 - spec.guardband) ** 2
    r_lqr = detune * np.diag(spec.input_weights)

    p_lqr = _solve_dare(a_aug, b_aug, q_aug, r_lqr)
    k_gain = np.linalg.solve(
        r_lqr + b_aug.T @ p_lqr @ b_aug, b_aug.T @ p_lqr @ a_aug
    )
    k_x = k_gain[:, :n]
    k_z = k_gain[:, n:]

    # --- Kalman filter -------------------------------------------------
    w_cov = spec.process_noise * (b_p @ b_p.T) + 1e-7 * np.eye(n)
    v_cov = np.array([[spec.measurement_noise]])
    p_kf = _solve_dare(a_p.T, c_p.T, w_cov, v_cov)
    m_gain = p_kf @ c_p.T @ np.linalg.inv(c_p @ p_kf @ c_p.T + v_cov)
    l_gain = a_p @ m_gain

    controller = DesignedController(
        plant=plant,
        spec=spec,
        plant_ss=plant_ss,
        k_x=k_x,
        k_z=k_z,
        m_gain=m_gain,
        l_gain=l_gain,
    )
    if not controller.is_stable():
        raise RuntimeError(
            "synthesized controller does not stabilize the nominal plant; "
            "check the identified model quality"
        )
    return controller
