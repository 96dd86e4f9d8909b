"""Power sensors: RAPL counters and the AC outlet meter.

Both the defense and the attacker observe power through a sensor, never the
true per-tick power:

* :class:`RaplSensor` models Intel RAPL (Section V): an energy accumulator
  updated continuously, read as a windowed average.  RAPL energy counts are
  quantized (15.3 uJ units) and carry a small residual error.
* :class:`OutletMeter` models the Yokogawa WT310 tap of Figure 5: it sees
  the *wall* power — measured domain plus the rest of the platform, divided
  by PSU efficiency — as RMS averages over three 60 Hz AC cycles (50 ms).

Sensors are deliberately stateless over trace arrays so the attacker can
re-sample a recorded trace at any interval (Figure 12).

:func:`measure_windows` is the one implementation of the defense's RAPL
read: it measures one interval for B sessions as a row-wise reduction,
adding counter noise drawn by :func:`repro.machine.power.draw_noise`.
The lock-step kernel (:mod:`repro.exec.batch`) calls it for a whole fleet
and :meth:`RaplSensor.measure_window` calls it with one row.
"""

from __future__ import annotations

import numpy as np

from .platform import PlatformSpec
from .power import draw_noise

__all__ = ["RaplSensor", "measure_windows", "OutletMeter", "window_means"]


def window_means(values: np.ndarray, window: int) -> np.ndarray:
    """Non-overlapping window means; trailing partial window dropped."""
    values = np.asarray(values, dtype=float)
    if window <= 0:
        raise ValueError("window must be positive")
    n_windows = values.size // window
    if n_windows == 0:
        return np.empty(0)
    return values[: n_windows * window].reshape(n_windows, window).mean(axis=1)


class RaplSensor:
    """Running Average Power Limit energy counter."""

    #: RAPL energy status unit (2^-16 J ~ 15.3 uJ).
    ENERGY_QUANTUM_J = 2.0**-16

    def __init__(
        self,
        spec: PlatformSpec,
        rng: np.random.Generator,
        noise_w: float = 0.06,
    ) -> None:
        self.spec = spec
        self._rng = rng
        self.noise_w = noise_w

    def measure_window(self, tick_powers: np.ndarray, tick_s: float) -> float:
        """Average power over one defense interval, as the counter reports it.

        A one-row :func:`measure_windows` call with one window of counter
        noise from this sensor's RNG.
        """
        tick_powers = np.asarray(tick_powers, dtype=float)
        _, noise_w = draw_noise([], [self], 1, tick_powers.size)
        return float(measure_windows(tick_powers[None, :], tick_s, noise_w[:, 0])[0])

    def sample_trace(
        self, tick_powers: np.ndarray, tick_s: float, interval_s: float
    ) -> np.ndarray:
        """Resample a full tick-resolution trace at a sampling interval.

        This is what an attacker reading unprivileged RAPL counters obtains
        (Table IV, attacks 1 and 2).
        """
        window = int(round(interval_s / tick_s))
        if window < 1:
            raise ValueError(
                f"sampling interval {interval_s}s is finer than the tick {tick_s}s"
            )
        means = window_means(tick_powers, window)
        quant_w = self.ENERGY_QUANTUM_J / (window * tick_s)
        means = np.round(means / quant_w) * quant_w
        return means + self._rng.normal(0.0, self.noise_w, size=means.size)


def measure_windows(
    tick_powers: np.ndarray, tick_s: float, noise_w: np.ndarray
) -> np.ndarray:
    """Per-session average power over intervals, as the counters report it.

    ``tick_powers`` holds one row of per-tick power per session: a
    ``(B, ticks)`` block measures one interval per session and returns
    ``(B,)``; a ``(B, windows, ticks)`` block measures ``windows``
    consecutive intervals per session and returns ``(B, windows)``.  Each
    window's energy is summed and quantized to the RAPL energy unit, and
    ``noise_w`` (one counter-noise value per window, shaped like the
    result; :func:`~repro.machine.power.draw_noise`) is added.  Every
    operation is row-wise, so each row equals a one-row call.
    """
    tick_powers = np.asarray(tick_powers, dtype=float)
    if tick_powers.ndim not in (2, 3):
        raise ValueError("expected a (B, ticks) or (B, windows, ticks) block")
    if np.shape(noise_w) != tick_powers.shape[:-1]:
        raise ValueError("expected one counter-noise value per window")
    window_ticks = tick_powers.shape[-1]
    if window_ticks == 0:
        raise ValueError("cannot measure an empty window")
    quantum_j = RaplSensor.ENERGY_QUANTUM_J
    # np.add.reduce is what ndarray.sum runs, and np.rint what np.round
    # runs at zero decimals, without their Python-level wrappers.
    energy_j = np.add.reduce(tick_powers, axis=-1) * tick_s
    energy_j = np.rint(energy_j / quantum_j) * quantum_j
    return energy_j / (window_ticks * tick_s) + noise_w


class OutletMeter:
    """AC electrical-outlet power meter (RMS over three AC cycles)."""

    AC_FREQUENCY_HZ = 60.0
    CYCLES_PER_SAMPLE = 3

    def __init__(
        self,
        spec: PlatformSpec,
        rng: np.random.Generator,
        noise_w: float = 0.5,
        platform_noise_w: float = 0.8,
    ) -> None:
        self.spec = spec
        self._rng = rng
        self.noise_w = noise_w
        self.platform_noise_w = platform_noise_w

    @property
    def sample_interval_s(self) -> float:
        """50 ms: three cycles of 60 Hz AC."""
        return self.CYCLES_PER_SAMPLE / self.AC_FREQUENCY_HZ * 1.0

    def wall_power(self, tick_powers: np.ndarray) -> np.ndarray:
        """Translate domain power into wall power seen at the outlet."""
        tick_powers = np.asarray(tick_powers, dtype=float)
        platform_w = self.spec.platform_base_power_w + self._rng.normal(
            0.0, self.platform_noise_w, size=tick_powers.size
        )
        return (tick_powers + np.maximum(platform_w, 0.0)) / self.spec.psu_efficiency

    def sample_trace(self, tick_powers: np.ndarray, tick_s: float) -> np.ndarray:
        """RMS power samples every three AC cycles, as the WT310 reports."""
        wall_w = self.wall_power(tick_powers)
        window = int(round(self.sample_interval_s / tick_s))
        window = max(window, 1)
        n_windows = wall_w.size // window
        if n_windows == 0:
            return np.empty(0)
        chunks = wall_w[: n_windows * window].reshape(n_windows, window)
        rms_w = np.sqrt(np.mean(chunks**2, axis=1))
        return rms_w + self._rng.normal(0.0, self.noise_w, size=rms_w.size)
