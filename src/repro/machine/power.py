"""Analytic power model of the measured domain (cores + private caches).

The side channel the paper defends exists because dynamic power tracks
switching activity: ``P_dyn ~ C_eff * f * V^2`` with the effective
capacitance ``C_eff`` modulated by what the application is doing.  The model
here keeps exactly that coupling:

* application power scales with the phase's activity level, the number of
  cores it occupies, the DVFS point ``f * V(f)^2``, and the idle-injection
  fraction;
* the balloon task adds its own activity-proportional power;
* static power scales with voltage (leakage) and is always present;
* an AR(1) process-noise term models the residual variability of a real
  machine (interrupts, prefetchers, DRAM refresh, ...).

All terms are normalized so that the platform's quoted maxima
(:attr:`PlatformSpec.max_app_dynamic_w` etc.) are hit at full activity and
the highest DVFS level, making the model easy to calibrate per platform.

The per-operating-point scalars (:meth:`PowerModel.dvfs_scale`,
:meth:`PowerModel.static_power`, :meth:`PowerModel.idle_scale`) are
memoized: the actuators only ever command a small discrete set of levels,
so each value is computed once per model and then served from a dict.

:func:`batch_window_power` is the one implementation of the per-tick power
step.  It evaluates B sessions' windows as one ``(B, ticks)`` array from
their held actuator levels and their process noise; the lock-step kernel
(:mod:`repro.exec.batch`) calls it for a whole fleet and
:meth:`PowerModel.window_power` calls it with one row.  Rows never mix, so
a row's result does not depend on which other rows share the call.

:func:`draw_noise` is the one noise draw of a session's sensing: each
session's AR(1) process noise, drawn from its power model's own RNG and
filtered through :func:`first_order_rows`, and each RAPL sensor's counter
noise.  Neither feeds back into the control loop, so the kernel draws
both ahead, a block of intervals per session at a time.

:func:`first_order_rows` is the one first-order recursion of the package:
the AR(1) noise here and the thermal node (:mod:`repro.machine.thermal`)
both run through it.  It performs SciPy's ``lfilter`` operations in
``lfilter``'s order, so it reproduces ``lfilter``'s bits without importing
SciPy's signal package (whose import costs more than the rest of the
package).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actuators import LevelTable
from .platform import PlatformSpec

__all__ = [
    "OperatingPoints",
    "PowerBreakdown",
    "PowerModel",
    "batch_window_power",
    "draw_noise",
    "first_order_columns",
    "first_order_rows",
]


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component power for one instant, in watts."""

    static_w: float
    app_w: float
    balloon_w: float

    @property
    def total_w(self) -> float:
        return self.static_w + self.app_w + self.balloon_w


class PowerModel:
    """Computes the true power of the measured domain.

    The model is memoryless apart from the AR(1) noise state, so it can be
    evaluated vectorized over a window of simulation ticks during which the
    actuator settings are constant.
    """

    #: AR(1) coefficient of the process noise; gives noise a ~100 ms
    #: correlation time at 1 ms ticks, like real RAPL residuals.
    NOISE_RHO = 0.98

    def __init__(self, spec: PlatformSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self._rng = rng
        self._noise_state = 0.0
        # Normalization constant: f * V^2 at the top DVFS point.
        self._fv2_max = spec.freq_max_ghz * spec.voltage(spec.freq_max_ghz) ** 2
        #: Shock standard deviation that makes the AR(1) process stationary
        #: at ``spec.process_noise_w``.
        self._shock_sigma_w = spec.process_noise_w * np.sqrt(1.0 - self.NOISE_RHO**2)
        # Operating-point memos: the actuators expose a few dozen discrete
        # levels, so each scalar is computed at most once per model.
        self._dvfs_scale_memo: dict[float, float] = {}
        self._static_power_memo: dict[float, float] = {}
        self._idle_scale_memo: dict[float, float] = {}

    def dvfs_scale(self, freq_ghz: float) -> float:
        """Relative dynamic-power scale ``f V(f)^2 / (f_max V_max^2)``."""
        scale = self._dvfs_scale_memo.get(freq_ghz)
        if scale is None:
            volt = self.spec.voltage(freq_ghz)
            scale = float(freq_ghz * volt**2 / self._fv2_max)
            self._dvfs_scale_memo[freq_ghz] = scale
        return scale

    def static_power(self, freq_ghz: float) -> float:
        """Leakage/uncore power; scales mildly with supply voltage."""
        power_w = self._static_power_memo.get(freq_ghz)
        if power_w is None:
            volt = self.spec.voltage(freq_ghz)
            power_w = self.spec.static_power_w * (0.6 + 0.4 * volt / self.spec.volt_max)
            self._static_power_memo[freq_ghz] = power_w
        return power_w

    #: Fraction of its nominal power the balloon develops on a core it
    #: shares with the application through SMT (it gets the spare issue
    #: slots of the second hardware thread).
    SMT_BALLOON_SHARE = 0.4
    #: Power reduction per unit of injected idle.  powerclamp's forced
    #: idle removes compute cycles one-for-one but the package keeps
    #: burning wakeup/uncore power, so 48% idle injection cuts dynamic
    #: power by ~34%, not 48%.
    IDLE_POWER_EFFECTIVENESS = 0.7

    def app_power(
        self,
        activity: np.ndarray | float,
        core_fraction: np.ndarray | float,
        freq_ghz: float,
        idle_frac: float,
    ) -> np.ndarray | float:
        """Dynamic power of the application under the current actuation.

        ``activity`` is the per-tick switching-activity level in [0, 1];
        ``core_fraction`` is the fraction of logical cores the application
        occupies (sequential phases use few cores, parallel phases all) —
        a scalar, or a per-tick array when the window crosses a phase
        boundary.  Idle injection gates dynamic switching on all cores.
        """
        scale = self.dvfs_scale(freq_ghz) * self.idle_scale(idle_frac)
        return self.spec.max_app_dynamic_w * np.asarray(activity) * core_fraction * scale

    def balloon_power(
        self, balloon_level: float, freq_ghz: float, idle_frac: float,
        app_core_fraction: np.ndarray | float = 0.0,
    ) -> np.ndarray | float:
        """Dynamic power of the balloon task at the given duty cycle.

        The balloon spawns one thread per logical core, so it shares the
        machine with the application: on the ``app_core_fraction`` of
        cores the application occupies, the balloon only develops
        :data:`SMT_BALLOON_SHARE` of its nominal power (it runs in the
        spare SMT slots); on the remaining cores it develops full power.
        This is why the balloon's power authority — and hence the plant
        gain the controller sees — varies with what the application is
        doing, the model uncertainty the synthesis guardband absorbs.
        ``app_core_fraction`` may be a per-tick array; the result is then
        an array too.
        """
        scale = self.dvfs_scale(freq_ghz) * self.idle_scale(idle_frac)
        occupancy = (1.0 - app_core_fraction) + self.SMT_BALLOON_SHARE * app_core_fraction
        power_w = self.spec.max_balloon_dynamic_w * balloon_level * occupancy * scale
        if isinstance(power_w, np.ndarray):
            return power_w
        return float(power_w)

    def idle_scale(self, idle_frac: float) -> float:
        """Dynamic-power multiplier of the idle-injection level."""
        scale = self._idle_scale_memo.get(idle_frac)
        if scale is None:
            scale = 1.0 - self.IDLE_POWER_EFFECTIVENESS * idle_frac
            self._idle_scale_memo[idle_frac] = scale
        return scale

    def window_power(
        self,
        activity: np.ndarray,
        core_fraction: np.ndarray | float,
        freq_ghz: float,
        idle_frac: float,
        balloon_level: float,
    ) -> np.ndarray:
        """True per-tick power over a window with constant settings.

        ``core_fraction`` may be a per-tick array (the occupancy profile of
        a window that crosses phase boundaries) or a scalar.  This is a
        one-row :func:`batch_window_power` call on one window of
        :func:`draw_noise`, which advances the AR(1) process noise carried
        from the previous window.
        """
        activity = np.asarray(activity, dtype=float)
        noise_w, _ = draw_noise([self], [], 1, activity.size)
        return batch_window_power(
            self,
            activity[None, :],
            np.asarray(core_fraction, dtype=float),
            np.array([[freq_ghz, idle_frac, balloon_level]], dtype=float),
            noise_w,
        )[0]

    def breakdown(
        self,
        activity: float,
        core_fraction: float,
        freq_ghz: float,
        idle_frac: float,
        balloon_level: float,
    ) -> PowerBreakdown:
        """Noise-free per-component power at a single operating point."""
        return PowerBreakdown(
            static_w=self.static_power(freq_ghz),
            app_w=float(self.app_power(activity, core_fraction, freq_ghz, idle_frac)),
            balloon_w=self.balloon_power(balloon_level, freq_ghz, idle_frac, core_fraction),
        )

    def max_achievable_power(self) -> float:
        """Power the balloon can sustain alone (idle application).

        This is the binding actuation ceiling: a mask value above it is
        unreachable whenever the application contributes nothing.
        """
        return (
            self.static_power(self.spec.freq_max_ghz)
            + self.spec.max_balloon_dynamic_w
        )

    def min_achievable_power(self) -> float:
        """Lower bound (lowest DVFS, max idle injection, no balloon)."""
        spec = self.spec
        return self.static_power(spec.freq_min_ghz)


class OperatingPoints:
    """A fleet's operating-point scalars, gathered by actuator level.

    The wide lock-step fleet's tables for :func:`batch_window_power`:
    :meth:`PowerModel.dvfs_scale` and :meth:`PowerModel.static_power` per
    DVFS level and :meth:`PowerModel.idle_scale` per idle level, each entry
    computed once by those methods (:class:`~repro.machine.LevelTable`).
    """

    def __init__(self, model: PowerModel) -> None:
        self._freq = LevelTable([model.dvfs_scale, model.static_power])
        self._idle = LevelTable([model.idle_scale])

    def scale_and_static(self, levels: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Each row's dynamic-power scale and static power at its ``(B, 3)`` levels."""
        freq = self._freq.columns(levels[:, 0])
        idle = self._idle.columns(levels[:, 1])
        dvfs_scale, static_w = self._freq.values[:, freq]
        return dvfs_scale * self._idle.values[0, idle], static_w


def batch_window_power(
    model: PowerModel,
    activity: np.ndarray,
    core_fraction: np.ndarray,
    levels: np.ndarray,
    noise_w: np.ndarray,
    points: "OperatingPoints | None" = None,
) -> np.ndarray:
    """Evaluate one window for B sessions as a ``(B, ticks)`` array.

    ``model`` is a :class:`PowerModel` of the sessions' platform; it only
    supplies the memoized operating-point scalars, which depend on the
    platform spec alone.  ``activity`` holds the sessions' per-tick
    activity as a ``(B, ticks)`` array and ``core_fraction`` their
    occupancy, broadcastable against it; ``levels`` the ``(B, 3)``
    actuator levels (frequency, idle fraction, balloon level) held during
    the window; ``noise_w`` each session's process noise over the window
    (:func:`draw_noise`).  A wide fleet passes its :class:`OperatingPoints`
    to gather the scalars rather than look them up row by row; both give
    the same bits.  Every operation is elementwise or row-wise, so each row
    equals a one-row call.
    """
    n_sessions, n_ticks = activity.shape
    if n_ticks == 0:
        return np.empty((n_sessions, 0))
    spec = model.spec
    if points is None:
        # Each row's (scale, static power), in one pass over its levels.
        scale, static_w = np.array([
            (model.dvfs_scale(freq_ghz) * model.idle_scale(idle_frac),
             model.static_power(freq_ghz))
            for freq_ghz, idle_frac, _ in levels.tolist()
        ]).reshape(n_sessions, 2).T
    else:
        scale, static_w = points.scale_and_static(levels)
    balloon_peak_w = spec.max_balloon_dynamic_w * levels[:, 2]

    app_w = spec.max_app_dynamic_w * activity * core_fraction * scale[:, None]
    occupancy = (1.0 - core_fraction) + PowerModel.SMT_BALLOON_SHARE * core_fraction
    balloon_w = balloon_peak_w[:, None] * occupancy * scale[:, None]
    power_w = static_w[:, None] + app_w + balloon_w + noise_w
    # Power can never be negative; noise excursions are clipped the way
    # a physical sensor would never report below ~0 W.
    return np.maximum(power_w, 0.1)


def draw_noise(
    models: "list[PowerModel]",
    sensors: "list",
    n_windows: int,
    window_ticks: int,
    time_major: bool = False,
) -> "tuple[np.ndarray, np.ndarray]":
    """Sensing noise of ``n_windows`` consecutive windows, per session.

    Returns ``(power_noise_w, counter_noise_w)``:

    * ``power_noise_w`` is each model's AR(1) process noise over
      ``n_windows * window_ticks`` ticks, one row per model: one
      ``normal(size=ticks)`` draw from the model's own RNG, filtered from
      the model's carried level, which it advances -- row by row through
      :func:`first_order_rows`, or with ``time_major`` (a wide fleet's
      blocks) all rows at once through :func:`first_order_columns`, which
      gives the same bits;
    * ``counter_noise_w`` is each RAPL sensor's counter noise, one value
      per window and row: one sized draw from the sensor's own RNG.

    A generator fills a size-n request exactly as n scalar draws and the
    recursion carries its level exactly across a split, so one call over
    k windows equals k one-window calls, row by row.  An empty request
    draws nothing and leaves every model's state untouched.
    """
    n_ticks = n_windows * window_ticks
    power_noise_w = np.zeros((len(models), n_ticks))
    if n_ticks and time_major:
        for row, model in enumerate(models):
            power_noise_w[row] = model._rng.normal(0.0, model._shock_sigma_w, size=n_ticks)
        power_noise_w, levels = first_order_columns(
            1.0,
            PowerModel.NOISE_RHO,
            power_noise_w,
            np.array([model._noise_state for model in models], dtype=float),
        )
        for model, level in zip(models, levels.tolist()):
            model._noise_state = level
    elif n_ticks:
        for row, model in enumerate(models):
            # One row at a time: a block's shocks as Python floats stay small.
            shocks = model._rng.normal(0.0, model._shock_sigma_w, size=n_ticks)
            noise_w, (model._noise_state,) = first_order_rows(
                1.0, PowerModel.NOISE_RHO, [shocks.tolist()], [model._noise_state]
            )
            power_noise_w[row] = noise_w[0]
    counter_noise_w = np.empty((len(sensors), n_windows))
    for row, sensor in enumerate(sensors):
        counter_noise_w[row] = sensor._rng.normal(0.0, sensor.noise_w, size=n_windows)
    return power_noise_w, counter_noise_w


def first_order_rows(
    gain: float, pole: float, rows: "list[list[float]]", levels: "list[float]"
) -> "tuple[np.ndarray, list[float]]":
    """Filter each row through ``y[t] = pole * y[t-1] + gain * x[t]``.

    ``rows`` holds equal-length rows of Python floats and ``levels`` each
    row's previous output ``y[-1]``.  Returns the ``(rows, ticks)`` block
    of outputs and each row's last output (its ``levels`` entry when the
    rows are empty), which is the level the next window starts from.

    Every step rounds exactly where SciPy's ``lfilter([gain],
    [1, -pole], x, zi=[pole * y[-1]])`` does: its transposed direct form
    computes ``y = z + gain * x`` and carries ``z = pole * y``, and float
    addition and multiplication commute bit for bit.  Splitting a row
    between two calls therefore carries the state exactly, and the bits
    equal ``lfilter``'s for finite inputs.  (They can differ only where
    ``pole * y`` underflows to a signed zero, which no ``pole > 0.5``
    produces.)  On the 20-tick windows of the control loop the plain-float
    loop costs about as much as an ``lfilter`` call's fixed overhead; per
    tick of a long row it is ~10x slower.  A unit gain (the AR(1) noise)
    skips the multiply, which returns ``x`` itself.
    """
    flat: list[float] = []
    last = []
    for row, level in zip(rows, levels):
        # Exactly the unit gain, for which gain * x is x.
        if gain != 1.0:  # maya: ignore[MAYA003]
            row = [gain * x for x in row]
        flat += [level := pole * level + x for x in row]
        last.append(level)
    n_ticks = len(rows[0]) if rows else 0
    return np.fromiter(flat, float, len(flat)).reshape(len(rows), n_ticks), last


def first_order_columns(
    gain: float, pole: float, inputs: np.ndarray, levels: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """:func:`first_order_rows` over a ``(rows, ticks)`` array, time-major.

    Each tick updates every row with one ``pole * y + gain * x`` over the
    ``(rows,)`` column, which rounds each element exactly where
    :func:`first_order_rows` does, so the outputs and the returned last
    levels (``levels`` when there are no ticks) have its bits.  Its cost
    is per tick rather than per row and tick, so it pays for wide fleets
    only.
    """
    n_rows, n_ticks = inputs.shape
    outputs = np.empty((n_ticks, n_rows))
    previous = np.array(levels, dtype=float)
    poles = np.full(n_rows, pole)
    multiply, add = np.multiply, np.add
    # Overflow to inf is silent, as in the plain-float loop.
    with np.errstate(over="ignore"):
        steps = np.ascontiguousarray((gain * inputs).T)
        for step, output in zip(steps, outputs):
            multiply(poles, previous, output)
            add(output, step, output)
            previous = output
    return np.ascontiguousarray(outputs.T), previous.copy()
