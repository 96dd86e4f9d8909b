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

__all__ = ["ControllerFleet", "MatrixController", "command_grid"]


class _FleetHeld:
    """A :class:`MatrixController` attribute its resident fleet may be ahead of.

    Reading it first writes the resident fleet back if that fleet has
    stepped since.  Assigning it (state seeding, :meth:`MatrixController.reset`)
    does the same, then retires the fleet, so the next step gathers the
    assigned state afresh.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, controller, owner=None):
        if controller is None:
            return self
        controller._catch_up()
        return controller.__dict__[self.name]

    def __set__(self, controller, value) -> None:
        controller._catch_up()
        controller.__dict__[self.name] = value
        controller._resident = None


class MatrixController:
    """Deployable controller instance for one machine."""

    #: Default command center: maximum frequency, no idle injection, a low
    #: balloon duty.  The LQR cost penalizes deviations of the command from
    #: this point, so among the many input combinations that reach a power
    #: target the controller prefers the application-friendliest one —
    #: without this, it parks at the system-identification operating point
    #: and burns balloon power against idle injection.
    DEFAULT_COMMAND_CENTER = (1.0, 0.0, 0.3)

    # The Equation-1 state and the diagnostic counters.  Between reads the
    # resident fleet that :meth:`step` advances may hold newer values.
    _x_pred = _FleetHeld("_x_pred")
    _z = _FleetHeld("_z")
    #: Centered command applied during the interval being measured.
    _u_applied = _FleetHeld("_u_applied")
    last_sat_hi = _FleetHeld("last_sat_hi")
    last_sat_lo = _FleetHeld("last_sat_lo")
    last_antiwindup = _FleetHeld("last_antiwindup")
    saturation_steps = _FleetHeld("saturation_steps")
    antiwindup_steps = _FleetHeld("antiwindup_steps")

    def __init__(
        self,
        design: DesignedController,
        bank: ActuatorBank,
        command_center: tuple[float, float, float] | None = None,
        grid: "_CommandTables | None" = None,
    ) -> None:
        self.design = design
        self.bank = bank
        self._grid = grid
        plant = design.plant
        self._u_op = plant.u_op
        self._u_center = np.asarray(
            command_center if command_center is not None else self.DEFAULT_COMMAND_CENTER,
            dtype=float,
        )
        self._y_scale = plant.y_scale_w
        self._rail_signs = _rail_signs(plant)
        self._m_gain = design.m_gain[:, 0]
        self._k_z = design.k_z[:, 0]
        #: The one-row fleet :meth:`step` advances: built by the first step
        #: and again after the state is assigned.
        self._resident: ControllerFleet | None = None
        self.reset()

    @property
    def interval_s(self) -> float:
        return self.design.plant.interval_s

    @property
    def grid(self) -> "_CommandTables":
        """The :func:`command_grid` of this controller's design and bank:
        the one given (a design's shared grid), else built on first use."""
        if self._grid is None:
            self._grid = command_grid(self.design, self.bank)
        return self._grid

    @property
    def state_vector(self) -> np.ndarray:
        """The Equation-1 state x(T): estimator states plus integrator."""
        return np.concatenate([self._x_pred, [self._z]])

    def reset(self) -> None:
        self._x_pred = np.zeros(self.design.plant_ss.n_states)
        self._z = 0.0
        self._u_applied = np.zeros(self.design.plant_ss.n_inputs)
        # Plain-int diagnostic counters.  Telemetry reads these through
        # Defense.diagnostics(); the controller itself never touches the
        # telemetry package (the out-of-band invariant, MAYA032).
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
        ``target_w``.  A step of the controller's resident one-row
        :class:`ControllerFleet`, which keeps the state between steps.
        """
        fleet = self._resident
        if fleet is None:
            fleet = self._resident = ControllerFleet([self])
        levels = fleet.step(
            np.array([target_w], dtype=float), np.array([measured_w], dtype=float)
        )
        return ActuatorSettings(*levels[0].tolist())

    def _catch_up(self) -> None:
        """Write the resident fleet back if it has stepped since."""
        fleet = self._resident
        if fleet is not None and fleet.ahead:
            fleet.write_back()

    def _held(self) -> tuple:
        """The state and counters, for a fleet to gather."""
        self._catch_up()
        state = self.__dict__
        return (
            state["_x_pred"], state["_z"], state["_u_applied"],
            (state["last_sat_hi"], state["last_sat_lo"], state["last_antiwindup"],
             state["saturation_steps"], state["antiwindup_steps"]),
        )

    def _store(self, fleet: "ControllerFleet", x_pred, z, u_applied, counts) -> None:
        """Take ``fleet``'s state of this controller (its write-back)."""
        state = self.__dict__
        state["_x_pred"] = x_pred
        state["_z"] = z
        state["_u_applied"] = u_applied
        (
            state["last_sat_hi"], state["last_sat_lo"], state["last_antiwindup"],
            state["saturation_steps"], state["antiwindup_steps"],
        ) = counts
        if fleet is not self._resident:
            self._resident = None

    # -- reporting helpers (Section VII-E) ------------------------------

    def equation1_matrices(self) -> StateSpace:
        """The controller as the constant matrices of Equation 1."""
        return self.design.as_equation1()

    def storage_bytes(self) -> int:
        return self.equation1_matrices().storage_bytes()

    def operations_per_step(self) -> int:
        return self.equation1_matrices().operations_per_step()


#: Edges that sort a normalized error into the four cases of the
#: anti-windup test (``searchsorted``, left side): 0 for
#: ``error <= -1e-12``, 1 for ``|error| < 1e-12``, 2 for ``error >= 1e-12``
#: and 3 for NaN, which sorts after +inf.
_ERROR_EDGES = np.array([-1e-12, np.nextafter(1e-12, 0.0), np.inf])
#: One error of each case, for which :class:`_CommandTables` runs the test.
_CASE_ERRORS = np.array([-1.0, 0.0, 1.0, np.nan])
#: Most steps a fleet runs before it settles its counters (:meth:`ControllerFleet._settle`).
_SETTLE_STEPS = 64


def _rail_signs(plant) -> np.ndarray:
    """Per input, +1 when raising it raises power (a sign-less input
    counts as +1): the rail conditional integration checks."""
    signs = plant.input_power_signs()
    return np.where(signs != 0, signs, 1.0)


class _CommandTables:
    """What a step needs of each of a set of applied commands, gathered by
    command index.

    A fleet's rows index two tables: one of their starting commands, which
    may hold any value (a seeded off-grid command included), until the
    first step, and then the :func:`command_grid`, whose rows are the
    bank's joint levels (:meth:`~repro.machine.ActuatorBank.level_grid`,
    1,287 level triples on SYS1), the only commands a step applies.  Only
    the grid has ``levels``.  Every entry is computed once, by the step's
    own expressions:

    * ``u_applied``: the centered command the estimator sees,
      ``normalize(levels) - u_op`` on the grid;
    * ``d_u`` and ``b_u``: its contractions ``D·u`` and ``B·u`` with the
      plant's input matrices, by the step's stacked ``np.matmul`` (per row
      the BLAS call of ``M @ u``, so the bits of any row holding it);
    * ``frozen[case, command]``: the anti-windup test -- every input
      pinned at the limit that moves power in the demanded direction, and
      the error not vanishing -- for one error of each case of
      :data:`_ERROR_EDGES`.  The test reads only the error's case: the rail
      signs are ±1, so ``error * sign > 0`` follows the error's sign.
    """

    def __init__(
        self, plant_ss: StateSpace, u_op: np.ndarray, rail_signs: np.ndarray,
        u_applied: np.ndarray, levels: "np.ndarray | None" = None,
    ) -> None:
        self.levels = levels
        self.u_applied = u_applied
        self.d_u = np.matmul(plant_ss.d, self.u_applied[:, :, None])[:, 0, 0]
        self.b_u = np.matmul(plant_ss.b, self.u_applied[:, :, None])[:, :, 0]
        u_prev_norm = self.u_applied + u_op
        frozen = []
        for error in _CASE_ERRORS:
            towards_more = error * rail_signs > 0
            railed = np.where(towards_more, u_prev_norm >= 1.0, u_prev_norm <= 0.0)
            frozen.append(np.logical_and.reduce(railed, axis=1) & ~(np.abs(error) < 1e-12))
        self.frozen = np.array(frozen)


def command_grid(design: DesignedController, bank: ActuatorBank) -> _CommandTables:
    """The command tables of every joint level of ``bank`` under ``design``.

    They depend on the design and bank alone, so a
    :class:`~repro.core.maya.MayaDesign` builds them once
    (``MayaDesign.command_grid``) and every fleet of its instances shares
    them.
    """
    plant = design.plant
    levels = bank.level_grid()
    return _CommandTables(
        design.plant_ss, plant.u_op, _rail_signs(plant),
        bank.normalize_many(levels) - plant.u_op, levels,
    )


class ControllerFleet:
    """The Equation-1 state of controllers sharing one design, as arrays.

    Built from B :class:`MatrixController` instances of one
    :class:`DesignedController` (so one plant and one platform's
    actuators), it gathers their state once -- estimator states ``(B, n)``,
    integrators ``(B,)``, applied commands and the saturation/anti-windup
    counters -- and keeps it across steps.  The controllers see it again
    only through :meth:`write_back`.

    Each row's applied command is an index into :class:`_CommandTables`:
    into its starting commands' tables before the first step, and a joint
    actuator level index into the first controller's shared
    :attr:`~MatrixController.grid` after.  The step gathers the command's
    contractions ``D·u`` and ``B·u`` and the anti-windup test's outcome
    from the tables instead of normalizing levels, contracting them and
    testing rails, and quantizes straight to the next index
    (:meth:`~repro.machine.ActuatorBank.quantize_index_many`).  The
    saturation and anti-windup counters are settled from the steps' raw
    commands and freezes by :meth:`write_back`, :meth:`keep` and every
    :data:`_SETTLE_STEPS` steps, not per step.

    Row ``k`` of every step gets exactly the settings, state and counters
    that stepping ``controllers[k]`` alone would: each contraction with
    the state is one stacked ``np.matmul(M, X[:, :, None])``, whose loop
    makes per row the BLAS call of ``M @ x``; everything else is
    elementwise, row-wise or a gather of a value the same expression
    computed (DESIGN.md §7).
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
        self._y_scale = first._y_scale
        self._m_gain = first._m_gain
        self._k_z = first._k_z
        self._u_center = np.array([controller._u_center for controller in controllers])
        held = [controller._held() for controller in controllers]
        self._x_pred = np.array([state[0] for state in held])
        self._z = np.array([state[1] for state in held], dtype=float)
        self._grid = first.grid
        #: The tables ``_command`` indexes: the rows' starting commands
        #: until the first step, then the level grid.
        self._tables = _CommandTables(
            self._plant_ss, first._u_op, first._rail_signs,
            np.array([state[2] for state in held]),
        )
        #: Each row's applied command, as a row of ``_tables``.
        self._command = np.arange(len(held))
        #: Per row: last sat_hi, sat_lo and anti-windup flag, then the
        #: cumulative saturation and anti-windup step counts, as of the
        #: last :meth:`_settle`.
        self._counts = np.array(
            [state[3] for state in held], dtype=np.int64
        ).reshape(len(held), 5)
        # The raw commands and integrator freezes of the steps since.
        self._u_norms: list = []
        self._frozen: list = []
        #: Whether a step has run since the last write-back of every row.
        self.ahead = False

    def step(self, targets_w: np.ndarray, measured_w: np.ndarray) -> np.ndarray:
        """One control interval for every row; returns the ``(B, 3)`` levels.

        ``targets_w`` and ``measured_w`` hold one value per row, with the
        timing of :meth:`MatrixController.step`.
        """
        plant_ss = self._plant_ss
        tables = self._tables
        command = self._command
        x_pred = self._x_pred
        error = (targets_w - measured_w) / self._y_scale

        # Measurement update.  The estimator tracks the deviation of power
        # from the target, and the measured interval ran under the
        # previously applied (saturated, quantized) command -- using that
        # true input (its D·u here, its B·u below) is the anti-windup path.
        y_pred = np.matmul(plant_ss.c, x_pred[:, :, None])[:, 0, 0] + tables.d_u[command]
        innovation = -error - y_pred
        x_filt = x_pred + self._m_gain * innovation[:, None]

        # Time update to the start of the next interval.
        x_pred = np.matmul(plant_ss.a, x_filt[:, :, None])[:, :, 0] + tables.b_u[command]

        # Conditional integration: freeze a row's integrator when every
        # input is already pinned at the limit that moves power in the
        # demanded direction (a vanishing error never freezes); the test's
        # outcome is tabulated per command and error case.
        frozen = tables.frozen[_ERROR_EDGES.searchsorted(error), command]
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
        command = self._bank.quantize_index_many(u_norm)
        self._tables = self._grid
        self._command = command
        self._x_pred = x_pred
        self._z = z
        self._u_norms.append(u_norm)
        self._frozen.append(frozen)
        if len(self._frozen) == _SETTLE_STEPS:
            self._settle()
        self.ahead = True
        return self._grid.levels[command]

    def _settle(self) -> None:
        """Bring the counters up to date with the steps since the last settle."""
        if not self._frozen:
            return
        u_norm = np.array(self._u_norms)
        frozen = np.array(self._frozen)
        self._u_norms = []
        self._frozen = []
        sat_hi = (u_norm > 1.0).sum(axis=2)
        sat_lo = (u_norm < 0.0).sum(axis=2)
        counts = self._counts
        counts[:, 0] = sat_hi[-1]
        counts[:, 1] = sat_lo[-1]
        counts[:, 2] = frozen[-1]
        counts[:, 3] += ((sat_hi + sat_lo) > 0).sum(axis=0)
        counts[:, 4] += frozen.sum(axis=0)

    def keep(self, rows: np.ndarray) -> None:
        """Keep only ``rows`` (ascending positions).

        Write the dropped rows back first if their controllers are read
        later; the counters are settled before the rows are cut.
        """
        self._settle()
        self.controllers = [self.controllers[k] for k in rows.tolist()]
        for name in ("_u_center", "_x_pred", "_z", "_command", "_counts"):
            setattr(self, name, getattr(self, name)[rows])

    def write_back(self, rows: "np.ndarray | None" = None) -> None:
        """Store the state of ``rows`` (default: all) on their controllers."""
        self._settle()
        positions = range(len(self.controllers)) if rows is None else rows.tolist()
        z = self._z.tolist()
        counts = self._counts.tolist()
        # A fresh gather: no controller holds a view of the tables.
        u_applied = self._tables.u_applied[self._command]
        for k in positions:
            self.controllers[k]._store(self, self._x_pred[k], z[k], u_applied[k], counts[k])
        if rows is None:
            self.ahead = False
