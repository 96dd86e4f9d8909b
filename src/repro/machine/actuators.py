"""Actuators available to the defense: DVFS, idle injection, balloon task.

These model the three knobs the paper's implementation drives (Section V):

* :class:`DvfsActuator` — the ``cpufreq`` interface; discrete frequency
  levels in 0.1 GHz steps.
* :class:`IdleInjector` — Intel's ``powerclamp`` driver; forces a percentage
  of processor cycles idle, 0-48% in 4% steps.
* :class:`BalloonTask` — the custom power-burning application; one thread
  per logical core running matrix-multiply loops with a tunable duty cycle,
  0-100% in 10% steps.

Each actuator exposes its discrete ``levels`` and quantizes continuous
commands to the nearest level, which is exactly what the privileged-software
implementation does when writing sysfs files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .platform import PlatformSpec

__all__ = [
    "QuantizedActuator",
    "DvfsActuator",
    "IdleInjector",
    "BalloonTask",
    "ActuatorSettings",
    "ActuatorBank",
]


class QuantizedActuator:
    """An actuator with a finite, ordered set of selectable levels."""

    def __init__(self, name: str, levels: np.ndarray) -> None:
        levels = np.asarray(levels, dtype=float)
        if levels.ndim != 1 or levels.size == 0:
            raise ValueError("levels must be a non-empty 1-D array")
        if not np.all(np.diff(levels) > 0):
            raise ValueError("levels must be strictly increasing")
        self.name = name
        self.levels = levels

    @property
    def min_level(self) -> float:
        return float(self.levels[0])

    @property
    def max_level(self) -> float:
        return float(self.levels[-1])

    def quantize(self, value: float) -> float:
        """Clamp ``value`` into range and snap it to the nearest level."""
        value = float(np.clip(value, self.min_level, self.max_level))
        index = int(np.argmin(np.abs(self.levels - value)))
        return float(self.levels[index])

    def quantize_many(self, values: np.ndarray) -> np.ndarray:
        """:meth:`quantize` of every element of a 1-D array (exact per element)."""
        values = np.clip(values, self.min_level, self.max_level)
        index = np.argmin(np.abs(self.levels[None, :] - values[:, None]), axis=1)
        return self.levels[index]

    def normalize(self, value: float) -> float:
        """Map a level to [0, 1] over the actuator's range."""
        span = self.max_level - self.min_level
        if abs(span) < 1e-12:
            return 0.0
        return (float(value) - self.min_level) / span

    def normalize_many(self, values: np.ndarray) -> np.ndarray:
        """:meth:`normalize` of every element of a 1-D array."""
        span = self.max_level - self.min_level
        if abs(span) < 1e-12:
            return np.zeros(values.shape[0])
        return (values - self.min_level) / span

    def denormalize(self, fraction: float) -> float:
        """Inverse of :meth:`normalize` followed by quantization."""
        span = self.max_level - self.min_level
        return self.quantize(self.min_level + float(fraction) * span)

    def denormalize_many(self, fractions: np.ndarray) -> np.ndarray:
        """:meth:`denormalize` of every element of a 1-D array."""
        span = self.max_level - self.min_level
        return self.quantize_many(self.min_level + fractions * span)

    def random_level(self, rng: np.random.Generator) -> float:
        """Pick a uniformly random level (used by the noisy baselines)."""
        return float(rng.choice(self.levels))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"levels=[{self.min_level}..{self.max_level}] x{self.levels.size})"
        )


class DvfsActuator(QuantizedActuator):
    """DVFS levels of a platform, via the ``cpufreq`` userspace governor."""

    def __init__(self, spec: PlatformSpec) -> None:
        super().__init__("dvfs_ghz", spec.freq_levels_ghz)


class IdleInjector(QuantizedActuator):
    """Forced-idle fraction via the ``intel_powerclamp`` driver."""

    def __init__(self, spec: PlatformSpec) -> None:
        count = int(round(spec.idle_max / spec.idle_step)) + 1
        super().__init__("idle_frac", np.round(spec.idle_step * np.arange(count), 6))


class BalloonTask(QuantizedActuator):
    """Duty-cycle level of the floating-point balloon application."""

    def __init__(self, spec: PlatformSpec) -> None:
        count = int(round(1.0 / spec.balloon_step)) + 1
        super().__init__("balloon_level", np.round(spec.balloon_step * np.arange(count), 6))


@dataclass(frozen=True)
class ActuatorSettings:
    """A complete actuation command: one value per input of Figure 2."""

    freq_ghz: float
    idle_frac: float
    balloon_level: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.freq_ghz, self.idle_frac, self.balloon_level])

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        if not 0.0 <= self.idle_frac <= 1.0:
            raise ValueError("idle_frac must be in [0, 1]")
        if not 0.0 <= self.balloon_level <= 1.0:
            raise ValueError("balloon_level must be in [0, 1]")


class ActuatorBank:
    """The three actuators of a platform, with vector quantization helpers.

    The formal controller computes continuous input commands; the bank maps
    them to realizable :class:`ActuatorSettings` the way the sysfs writes do.
    """

    def __init__(self, spec: PlatformSpec) -> None:
        self.spec = spec
        self.dvfs = DvfsActuator(spec)
        self.idle = IdleInjector(spec)
        self.balloon = BalloonTask(spec)

    @property
    def actuators(self) -> tuple[QuantizedActuator, ...]:
        return (self.dvfs, self.idle, self.balloon)

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(act.name for act in self.actuators)

    def quantize(self, freq_ghz: float, idle_frac: float, balloon_level: float) -> ActuatorSettings:
        return ActuatorSettings(
            freq_ghz=self.dvfs.quantize(freq_ghz),
            idle_frac=self.idle.quantize(idle_frac),
            balloon_level=self.balloon.quantize(balloon_level),
        )

    def quantize_normalized(self, fractions: np.ndarray) -> ActuatorSettings:
        """Quantize a normalized [0,1]^3 command vector to settings."""
        fractions = np.asarray(fractions, dtype=float)
        if fractions.shape != (3,):
            raise ValueError("expected a 3-element command vector")
        return ActuatorSettings(
            freq_ghz=self.dvfs.denormalize(fractions[0]),
            idle_frac=self.idle.denormalize(fractions[1]),
            balloon_level=self.balloon.denormalize(fractions[2]),
        )

    def quantize_normalized_many(self, fractions: np.ndarray) -> np.ndarray:
        """:meth:`quantize_normalized` of each row of a ``(B, 3)`` array.

        Returns the quantized levels as a ``(B, 3)`` array whose row ``k``
        holds the (freq_ghz, idle_frac, balloon_level) that
        ``quantize_normalized(fractions[k])`` would return.
        """
        fractions = np.asarray(fractions, dtype=float)
        if fractions.ndim != 2 or fractions.shape[1] != 3:
            raise ValueError("expected a (B, 3) command array")
        levels = np.empty_like(fractions)
        for column, actuator in enumerate(self.actuators):
            levels[:, column] = actuator.denormalize_many(fractions[:, column])
        return levels

    def normalize_many(self, levels: np.ndarray) -> np.ndarray:
        """:meth:`normalize` of each row of a ``(B, 3)`` array of levels."""
        normalized = np.empty_like(levels)
        for column, actuator in enumerate(self.actuators):
            normalized[:, column] = actuator.normalize_many(levels[:, column])
        return normalized

    def normalize(self, settings: ActuatorSettings) -> np.ndarray:
        """Map settings to the normalized [0,1]^3 space the controller uses."""
        return np.array(
            [
                self.dvfs.normalize(settings.freq_ghz),
                self.idle.normalize(settings.idle_frac),
                self.balloon.normalize(settings.balloon_level),
            ]
        )

    def max_performance(self) -> ActuatorSettings:
        """The insecure Baseline operating point (Section VII-E)."""
        return ActuatorSettings(self.dvfs.max_level, 0.0, 0.0)

    def random_settings(self, rng: np.random.Generator) -> ActuatorSettings:
        """Uniformly random settings (Noisy Baseline / Random Inputs)."""
        return ActuatorSettings(
            freq_ghz=self.dvfs.random_level(rng),
            idle_frac=self.idle.random_level(rng),
            balloon_level=self.balloon.random_level(rng),
        )
