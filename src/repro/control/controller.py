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

:class:`ControllerFleet` is the one implementation of the update: it holds
the Equation-1 state of B controllers sharing a design as ``(B, ·)``
arrays and steps them together.  :meth:`MatrixController.step` is a
one-row fleet step.
"""

from __future__ import annotations

import numpy as np

from ..machine import ActuatorBank, ActuatorSettings
from .statespace import StateSpace
from .synthesis import DesignedController

__all__ = ["ControllerFleet", "MatrixController"]


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
        # Per input, +1 when raising it raises power (a sign-less input
        # counts as +1): the rail conditional integration checks.
        signs = plant.input_power_signs()
        self._rail_signs = np.where(signs != 0, signs, 1.0)
        self._m_gain = design.m_gain[:, 0]
        self._k_z = design.k_z[:, 0]
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
        ``target_w``.  A one-row :class:`ControllerFleet` step.
        """
        fleet = ControllerFleet([self])
        levels = fleet.step(
            np.array([target_w], dtype=float), np.array([measured_w], dtype=float)
        )
        fleet.write_back()
        return ActuatorSettings(*levels[0].tolist())

    # -- reporting helpers (Section VII-E) ------------------------------

    def equation1_matrices(self) -> StateSpace:
        """The controller as the constant matrices of Equation 1."""
        return self.design.as_equation1()

    def storage_bytes(self) -> int:
        return self.equation1_matrices().storage_bytes()

    def operations_per_step(self) -> int:
        return self.equation1_matrices().operations_per_step()


class ControllerFleet:
    """The Equation-1 state of controllers sharing one design, as arrays.

    Built from B :class:`MatrixController` instances of one
    :class:`DesignedController` (so one plant and one platform's
    actuators), it gathers their state once -- estimator states ``(B, n)``,
    integrators ``(B,)``, applied commands ``(B, m)`` and the
    saturation/anti-windup counters -- and keeps it across steps.  The
    controllers see it again only through :meth:`write_back`.

    Row ``k`` of every step gets exactly the settings, state and counters
    that stepping ``controllers[k]`` alone would: each contraction is one
    stacked ``np.matmul(M, X[:, :, None])``, whose loop makes per row the
    BLAS call of ``M @ x``; everything else is elementwise or row-wise
    (DESIGN.md §7).
    """

    def __init__(self, controllers: "list[MatrixController]") -> None:
        first = controllers[0]
        design = first.design
        if any(controller.design is not design for controller in controllers):
            raise ValueError("controllers of one fleet must share a design")
        self.controllers = list(controllers)
        self._design = design
        self._bank = first.bank
        self._plant_ss = design.plant_ss
        self._u_op = first._u_op
        self._y_scale = first._y_scale
        self._rail_signs = first._rail_signs
        self._m_gain = first._m_gain
        self._k_z = first._k_z
        self._u_center = np.array([controller._u_center for controller in controllers])
        self._x_pred = np.array([controller._x_pred for controller in controllers])
        self._z = np.array([controller._z for controller in controllers], dtype=float)
        self._u_applied = np.array([controller._u_applied for controller in controllers])
        #: Per row: last sat_hi, sat_lo and anti-windup flag, then the
        #: cumulative saturation and anti-windup step counts.
        self._counts = np.array(
            [
                (c.last_sat_hi, c.last_sat_lo, c.last_antiwindup,
                 c.saturation_steps, c.antiwindup_steps)
                for c in controllers
            ],
            dtype=np.int64,
        ).reshape(len(controllers), 5)

    def step(self, targets_w: np.ndarray, measured_w: np.ndarray) -> np.ndarray:
        """One control interval for every row; returns the ``(B, 3)`` levels.

        ``targets_w`` and ``measured_w`` hold one value per row, with the
        timing of :meth:`MatrixController.step`.
        """
        plant_ss = self._plant_ss
        x_pred = self._x_pred
        u_applied = self._u_applied
        error = (targets_w - measured_w) / self._y_scale

        # Measurement update.  The estimator tracks the deviation of power
        # from the target, and the measured interval ran under the
        # previously applied (saturated, quantized) command -- using that
        # true input is the anti-windup path.
        y_pred = (
            np.matmul(plant_ss.c, x_pred[:, :, None])[:, 0, 0]
            + np.matmul(plant_ss.d, u_applied[:, :, None])[:, 0, 0]
        )
        innovation = -error - y_pred
        x_filt = x_pred + self._m_gain * innovation[:, None]

        # Time update to the start of the next interval.
        x_pred = (
            np.matmul(plant_ss.a, x_filt[:, :, None])[:, :, 0]
            + np.matmul(plant_ss.b, u_applied[:, :, None])[:, :, 0]
        )

        # Conditional integration: freeze a row's integrator when every
        # input is already pinned at the limit that moves power in the
        # demanded direction (a vanishing error never freezes).
        u_prev_norm = u_applied + self._u_op
        towards_more = error[:, None] * self._rail_signs > 0
        railed = np.where(towards_more, u_prev_norm >= 1.0, u_prev_norm <= 0.0)
        frozen = np.logical_and.reduce(railed, axis=1) & ~(np.abs(error) < 1e-12)
        z = np.where(frozen, self._z, self._z + error)

        # Command for the next interval.  Feedback acts in deviations; the
        # command is centered on the performance-preferring point, and the
        # integrator absorbs the resulting constant offset.
        u_norm = (
            -np.matmul(self._design.k_x, x_pred[:, :, None])[:, :, 0]
            - self._k_z * z[:, None]
        ) + self._u_center
        # The bank clips each denormalized command into its actuator's
        # range, which snaps to the level a clip of u_norm to [0, 1] would.
        levels = self._bank.quantize_normalized_many(u_norm)
        # The estimator's model coordinates stay centered on the
        # identification operating point.
        self._u_applied = self._bank.normalize_many(levels) - self._u_op
        self._x_pred = x_pred
        self._z = z
        counts = self._counts
        counts[:, 0] = (u_norm > 1.0).sum(axis=1)
        counts[:, 1] = (u_norm < 0.0).sum(axis=1)
        counts[:, 2] = frozen
        counts[:, 3] += (counts[:, 0] + counts[:, 1]) > 0
        counts[:, 4] += frozen
        return levels

    def keep(self, rows: np.ndarray) -> None:
        """Keep only ``rows`` (ascending positions); write the others back first."""
        self.controllers = [self.controllers[k] for k in rows.tolist()]
        for name in ("_u_center", "_x_pred", "_z", "_u_applied", "_counts"):
            setattr(self, name, getattr(self, name)[rows])

    def write_back(self, rows: "np.ndarray | None" = None) -> None:
        """Store the state of ``rows`` (default: all) on their controllers."""
        positions = range(len(self.controllers)) if rows is None else rows.tolist()
        z = self._z.tolist()
        counts = self._counts.tolist()
        for k in positions:
            controller = self.controllers[k]
            controller._x_pred = self._x_pred[k]
            controller._z = z[k]
            controller._u_applied = self._u_applied[k]
            (
                controller.last_sat_hi,
                controller.last_sat_lo,
                controller.last_antiwindup,
                controller.saturation_steps,
                controller.antiwindup_steps,
            ) = counts[k]
