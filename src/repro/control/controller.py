"""Runtime of the formal controller (the state machine of Equation 1).

:class:`MatrixController` is what Maya executes every 20 ms: read the power
deviation, update the controller state, emit actuator settings.  It wraps
the synthesized LQG servo with the practical details a deployment needs:

* commands are computed in normalized coordinates, then de-normalized and
  quantized to the actuators' discrete levels;
* the state estimator is updated with the *applied* (quantized, saturated)
  input, not the raw command, which is the standard anti-windup structure;
* the error integrator freezes while every input is pinned at the limit
  that would push power further in the demanded direction (conditional
  integration), so deep saturation cannot wind the state up.
"""

from __future__ import annotations

import numpy as np

from ..machine import ActuatorBank, ActuatorSettings
from .statespace import StateSpace
from .synthesis import DesignedController

__all__ = ["MatrixController"]


class MatrixController:
    """Deployable controller instance for one machine."""

    #: Default command center: maximum frequency, no idle injection, a low
    #: balloon duty.  The LQR cost penalizes deviations of the command from
    #: this point, so among the many input combinations that reach a power
    #: target the controller prefers the application-friendliest one —
    #: without this, it parks at the system-identification operating point
    #: and burns balloon power against idle injection.
    DEFAULT_COMMAND_CENTER = (1.0, 0.0, 0.3)

    def __init__(
        self,
        design: DesignedController,
        bank: ActuatorBank,
        command_center: tuple[float, float, float] | None = None,
    ) -> None:
        self.design = design
        self.bank = bank
        plant = design.plant
        self._u_op = plant.u_op
        self._u_center = np.asarray(
            command_center if command_center is not None else self.DEFAULT_COMMAND_CENTER,
            dtype=float,
        )
        self._y_scale = plant.y_scale_w
        self._input_signs = plant.input_power_signs()
        self._x_pred = np.zeros(design.plant_ss.n_states)
        self._z = 0.0
        #: Centered command applied during the interval being measured.
        self._u_applied = np.zeros(design.plant_ss.n_inputs)
        # Plain-int diagnostic counters.  Telemetry reads these through
        # Defense.diagnostics(); the controller itself never touches the
        # telemetry package (the out-of-band invariant, MAYA032).
        self.last_sat_hi = 0
        self.last_sat_lo = 0
        self.last_antiwindup = 0
        self.saturation_steps = 0
        self.antiwindup_steps = 0

    @property
    def interval_s(self) -> float:
        return self.design.plant.interval_s

    @property
    def state_vector(self) -> np.ndarray:
        """The Equation-1 state x(T): estimator states plus integrator."""
        return np.concatenate([self._x_pred, [self._z]])

    def reset(self) -> None:
        self._x_pred = np.zeros_like(self._x_pred)
        self._z = 0.0
        self._u_applied = np.zeros_like(self._u_applied)
        self.last_sat_hi = 0
        self.last_sat_lo = 0
        self.last_antiwindup = 0
        self.saturation_steps = 0
        self.antiwindup_steps = 0

    def diagnostics(self) -> dict:
        """Last-step saturation/anti-windup state plus cumulative counts.

        ``sat_hi``/``sat_lo`` count raw command components clipped at the
        upper/lower rail by the last :meth:`step`; ``aw`` is 1 when that
        step froze the integrator (conditional integration engaged).
        """
        return {
            "sat_hi": self.last_sat_hi,
            "sat_lo": self.last_sat_lo,
            "aw": self.last_antiwindup,
            "saturation_steps": self.saturation_steps,
            "antiwindup_steps": self.antiwindup_steps,
        }

    def step(self, target_w: float, measured_w: float) -> ActuatorSettings:
        """One control interval: deviation in, settings for the next out.

        Timing: ``measured_w`` is the power of the interval that just
        ended, during which the command from the *previous* step was
        active; the returned settings drive the *next* interval aimed at
        ``target_w``.
        """
        design = self.design
        plant_ss = design.plant_ss
        error = (target_w - measured_w) / self._y_scale

        # Measurement update.  The estimator tracks the deviation of power
        # from the target, and the measured interval ran under the
        # previously applied (saturated, quantized) command — using that
        # true input is the anti-windup path.
        y_meas_dev = -error
        y_pred = float((plant_ss.c @ self._x_pred + plant_ss.d @ self._u_applied)[0])
        innovation = y_meas_dev - y_pred
        x_filt = self._x_pred + design.m_gain[:, 0] * innovation

        # Time update to the start of the next interval.
        self._x_pred = plant_ss.a @ x_filt + plant_ss.b @ self._u_applied

        # Conditional integration: freeze when all inputs are already
        # pinned at the limit that moves power in the demanded direction.
        u_prev_norm = self._u_applied + self._u_op
        frozen = self._saturated_towards(error, u_prev_norm)
        if not frozen:
            self._z += error

        # Command for the next interval.  Feedback acts in deviations; the
        # command is centered on the performance-preferring point, and the
        # integrator absorbs the resulting constant offset.
        u_centered = -(design.k_x @ self._x_pred) - design.k_z[:, 0] * self._z
        u_norm = u_centered + self._u_center
        self.last_sat_hi = int(np.count_nonzero(u_norm > 1.0))
        self.last_sat_lo = int(np.count_nonzero(u_norm < 0.0))
        self.last_antiwindup = int(frozen)
        if self.last_sat_hi or self.last_sat_lo:
            self.saturation_steps += 1
        self.antiwindup_steps += self.last_antiwindup
        settings = self.bank.quantize_normalized(np.clip(u_norm, 0.0, 1.0))
        # The estimator's model coordinates stay centered on the
        # identification operating point.
        self._u_applied = self.bank.normalize(settings) - self._u_op
        return settings

    @staticmethod
    def step_fleet(
        controllers: "list[MatrixController]",
        targets_w: np.ndarray,
        measured_w: np.ndarray,
    ) -> "list[ActuatorSettings]":
        """:meth:`step` for every controller of a fleet, in one pass.

        All controllers must share one :class:`DesignedController` (and so
        one plant and one platform's actuators).  Row ``k`` gets exactly
        the settings, state and counters that
        ``controllers[k].step(targets_w[k], measured_w[k])`` would leave:
        each contraction is one stacked ``np.matmul(M, X[:, :, None])``,
        whose loop makes per row the same BLAS call as the serial
        ``M @ x``; everything else is elementwise in the serial expression
        order (DESIGN.md §7).  The state lives on the controllers, read at
        entry and written back at exit.
        """
        first = controllers[0]
        design = first.design
        bank = first.bank
        if any(controller.design is not design for controller in controllers):
            raise ValueError("controllers of one fleet step must share a design")
        plant_ss = design.plant_ss
        x_pred = np.array([controller._x_pred for controller in controllers])
        z = np.array([controller._z for controller in controllers])
        u_applied = np.array([controller._u_applied for controller in controllers])
        u_center = np.array([controller._u_center for controller in controllers])
        error = (
            np.asarray(targets_w, dtype=float) - np.asarray(measured_w, dtype=float)
        ) / first._y_scale

        # Measurement update (see step), then the time update.
        y_pred = (
            np.matmul(plant_ss.c, x_pred[:, :, None])[:, 0, 0]
            + np.matmul(plant_ss.d, u_applied[:, :, None])[:, 0, 0]
        )
        innovation = -error - y_pred
        x_filt = x_pred + design.m_gain[:, 0] * innovation[:, None]
        x_pred = (
            np.matmul(plant_ss.a, x_filt[:, :, None])[:, :, 0]
            + np.matmul(plant_ss.b, u_applied[:, :, None])[:, :, 0]
        )

        # Conditional integration: the row-wise _saturated_towards.
        u_prev_norm = u_applied + first._u_op
        signs = np.where(first._input_signs != 0, first._input_signs, 1.0)
        direction = np.sign(error)[:, None] * signs
        railed = np.where(direction > 0, u_prev_norm >= 1.0, u_prev_norm <= 0.0)
        frozen = railed.all(axis=1) & ~(np.abs(error) < 1e-12)
        z = np.where(frozen, z, z + error)

        u_centered = (
            -np.matmul(design.k_x, x_pred[:, :, None])[:, :, 0]
            - design.k_z[:, 0] * z[:, None]
        )
        u_norm = u_centered + u_center
        sat_hi = np.count_nonzero(u_norm > 1.0, axis=1)
        sat_lo = np.count_nonzero(u_norm < 0.0, axis=1)
        levels = bank.quantize_normalized_many(np.clip(u_norm, 0.0, 1.0))
        u_applied = bank.normalize_many(levels) - first._u_op

        settings: list[ActuatorSettings] = []
        for k, controller in enumerate(controllers):
            controller._x_pred = x_pred[k]
            controller._z = float(z[k])
            controller._u_applied = u_applied[k]
            controller.last_sat_hi = int(sat_hi[k])
            controller.last_sat_lo = int(sat_lo[k])
            controller.last_antiwindup = int(frozen[k])
            if controller.last_sat_hi or controller.last_sat_lo:
                controller.saturation_steps += 1
            controller.antiwindup_steps += controller.last_antiwindup
            settings.append(ActuatorSettings(
                freq_ghz=float(levels[k, 0]),
                idle_frac=float(levels[k, 1]),
                balloon_level=float(levels[k, 2]),
            ))
        return settings

    def _saturated_towards(self, error: float, u_norm: np.ndarray) -> bool:
        """True if every input is railed in the direction demanded by ``error``."""
        if abs(error) < 1e-12:
            return False
        demand = np.sign(error)  # +1 -> need more power
        railed = []
        for i, sign in enumerate(self._input_signs):
            direction = demand * (sign if sign != 0 else 1.0)
            if direction > 0:
                railed.append(u_norm[i] >= 1.0)
            else:
                railed.append(u_norm[i] <= 0.0)
        return all(railed)

    # -- reporting helpers (Section VII-E) ------------------------------

    def equation1_matrices(self) -> StateSpace:
        """The controller as the constant matrices of Equation 1."""
        return self.design.as_equation1()

    def storage_bytes(self) -> int:
        return self.equation1_matrices().storage_bytes()

    def operations_per_step(self) -> int:
        return self.equation1_matrices().operations_per_step()
