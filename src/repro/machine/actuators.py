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

import struct
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
    "JointLevels",
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

    def normalize(self, value: float) -> float:
        """Map a level to [0, 1] over the actuator's range."""
        span = self.max_level - self.min_level
        if abs(span) < 1e-12:
            return 0.0
        return (float(value) - self.min_level) / span

    def denormalize(self, fraction: float) -> float:
        """Inverse of :meth:`normalize` followed by quantization."""
        span = self.max_level - self.min_level
        return self.quantize(self.min_level + float(fraction) * span)

    def random_level(self, rng: np.random.Generator) -> float:
        """Pick a uniformly random level (used by the noisy baselines).

        The value and generator state of ``rng.choice(self.levels)``, at a
        quarter of its cost.
        """
        return float(self.levels[rng.integers(0, self.levels.size)])

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

    def __iter__(self):
        """Unpack as the ``(freq_ghz, idle_frac, balloon_level)`` triple.

        The control loop holds a fleet's settings as joint level indices
        into the rows of :attr:`JointLevels.triples`; code that reads one
        session's settings unpacks either form.
        """
        return iter((self.freq_ghz, self.idle_frac, self.balloon_level))

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
        # The stacked form of the three actuators for the fleet helpers:
        # one row of levels per actuator, padded with +inf (never the
        # nearest level to a clipped command), and the per-column range.
        actuators = self.actuators
        width = max(actuator.levels.size for actuator in actuators)
        self._levels = np.full((len(actuators), width), np.inf)
        for row, actuator in enumerate(actuators):
            self._levels[row, :actuator.levels.size] = actuator.levels
        self._mins = np.array([actuator.min_level for actuator in actuators])
        self._maxs = np.array([actuator.max_level for actuator in actuators])
        self._spans = self._maxs - self._mins
        # normalize() maps a single-level actuator to 0.0; its column
        # divides by 1.0 and is then overwritten.
        self._single_level = [
            column for column, span in enumerate(self._spans.tolist()) if abs(span) < 1e-12
        ]
        self._divisors = self._spans.copy()
        self._divisors[self._single_level] = 1.0
        # Joint level index of a level triple: row-major over the three
        # actuators' level lists (9 x 13 x 11 = 1,287 triples on SYS1).
        sizes = [actuator.levels.size for actuator in actuators]
        self._strides = np.array([sizes[1] * sizes[2], sizes[2], 1], dtype=np.intp)
        self._grid: "np.ndarray | None" = None
        self._thresholds: "np.ndarray | None" = None
        self._weights: "np.ndarray | None" = None

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

    def level_grid(self) -> np.ndarray:
        """Every level triple as a ``(N, 3)`` array, row = joint level index.

        Row ``(i * n_idle + j) * n_balloon + k`` holds the ``i``-th DVFS,
        ``j``-th idle and ``k``-th balloon level (the index
        :meth:`quantize_index_many` returns).  Built on first use.
        """
        if self._grid is None:
            grids = np.meshgrid(*(actuator.levels for actuator in self.actuators), indexing="ij")
            self._grid = np.stack([grid.reshape(-1) for grid in grids], axis=1)
        return self._grid

    def quantize_index_many(self, fractions: np.ndarray) -> np.ndarray:
        """The joint level index of :meth:`quantize_normalized` of each row.

        ``fractions`` is a ``(B, 3)`` array of normalized commands; entry
        ``k`` of the result indexes :meth:`level_grid` at the settings
        ``quantize_normalized(fractions[k])`` would return.  A command's
        level on one actuator is the number of that actuator's thresholds
        (:meth:`_tabulate_thresholds`) it reaches, so the joint index is
        one comparison and one weighted count.
        """
        if self._thresholds is None:
            self._tabulate_thresholds()
        reached = fractions[:, :, None] >= self._thresholds
        return np.dot(reached.reshape(len(fractions), -1), self._weights)

    def _nearest(self, fractions: np.ndarray) -> np.ndarray:
        """Per actuator, the index of the level :meth:`quantize_normalized` picks.

        ``fractions`` is a ``(K, 3)`` array.  One clip, one ``argmin
        |levels - v|`` over the stacked level table, each elementwise in
        :meth:`QuantizedActuator.denormalize`'s order, with ties going to
        the first (lower) level.
        """
        # np.minimum/np.maximum clip like np.clip, up to the sign of a zero,
        # which no |level - value| distance sees.
        values = np.minimum(
            np.maximum(self._mins + fractions * self._spans, self._mins), self._maxs
        )
        return np.abs(self._levels - values[:, :, None]).argmin(axis=2)

    def _tabulate_thresholds(self) -> None:
        """Per actuator and level ``j >= 1``, the least fraction that reaches it.

        :meth:`_nearest` does not decrease as a fraction grows (the clipped
        value does not, and neither does the nearest level of a growing
        value), so a fraction's level index is the number of these
        thresholds it is at or above; NaN reaches none, as it reaches
        level 0.  Each threshold is found by bisection over the float64s
        between a bracket around the fraction of the midpoint between two
        levels (or ``[0, 1]`` if that bracket misses), with :meth:`_nearest`
        itself as the test, so it is exact.  Slots past an actuator's last
        level hold NaN, which no fraction reaches.
        """
        width = self._levels.shape[1]
        columns = np.arange(3)
        level = np.repeat(np.arange(1, width)[:, None], 3, axis=1)
        valid = level < np.array([actuator.levels.size for actuator in self.actuators])
        below = self._levels.T[level - 1, columns]
        above = self._levels.T[level, columns]
        with np.errstate(invalid="ignore", divide="ignore"):
            guess = ((below + above) / 2.0 - self._mins) / self._spans
        guess = np.where(valid, guess, 0.5)
        low = np.maximum(guess - 1e-9, 0.0)
        high = np.minimum(guess + 1e-9, 1.0)
        bracketed = (self._nearest(low) < level) & (self._nearest(high) >= level)
        # Positive float64s order like their bit patterns.
        low = np.where(bracketed, low, 0.0).view(np.int64)
        high = np.where(bracketed, high, 1.0).view(np.int64)
        low = np.where(valid, low, high - 1)
        while True:
            open_ = high - low > 1
            if not open_.any():
                break
            middle = low + (high - low) // 2
            reaches = self._nearest(middle.view(np.float64)) >= level
            high = np.where(open_ & reaches, middle, high)
            low = np.where(open_ & ~reaches, middle, low)
        thresholds = np.where(valid, high.view(np.float64), np.nan)
        #: ``(3, W - 1)``: row ``a`` holds actuator ``a``'s thresholds.
        self._thresholds = np.ascontiguousarray(thresholds.T)
        self._weights = np.repeat(self._strides, width - 1)

    def quantize_normalized_many(self, fractions: np.ndarray) -> np.ndarray:
        """:meth:`quantize_normalized` of each row of a ``(B, 3)`` array.

        Returns the quantized levels as a ``(B, 3)`` array whose row ``k``
        holds the (freq_ghz, idle_frac, balloon_level) that
        ``quantize_normalized(fractions[k])`` would return: the
        :meth:`level_grid` rows of :meth:`quantize_index_many`.
        """
        fractions = np.asarray(fractions, dtype=float)
        if fractions.ndim != 2 or fractions.shape[1] != 3:
            raise ValueError("expected a (B, 3) command array")
        return self.level_grid()[self.quantize_index_many(fractions)]

    def normalize_many(self, levels: np.ndarray) -> np.ndarray:
        """:meth:`normalize` of each row of a ``(B, 3)`` array of levels."""
        normalized = (levels - self._mins) / self._divisors
        if self._single_level:
            normalized[:, self._single_level] = 0.0
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


#: A triple's and a value's bits, as the keys :class:`JointLevels` looks
#: them up by (so ``-0.0`` and ``0.0`` stay apart).
_TRIPLE_BITS = struct.Struct("3d").pack
_VALUE_BITS = struct.Struct("d").pack


class JointLevels:
    """Actuator triples by joint level index: a bank's grid, then off-grid triples.

    The lock-step kernel carries each row's held settings as an index into
    :attr:`triples`.  Rows ``0 .. n_grid - 1`` are the bank's
    :meth:`~ActuatorBank.level_grid`, whose index
    :meth:`~ActuatorBank.quantize_index_many`, and so a Maya controller
    step, returns; a triple off that grid gets the next row the first time
    :meth:`index` meets it, so it costs one more row rather than a second
    path.  Per actuator, :attr:`values` lists the distinct values seen (the
    actuator's levels, then any value off them) and :attr:`columns` holds
    each row's position in those lists: per-level tables (the power step's
    operating points, the phase cursor's frequency speedups) are computed
    once per value by the scalar code they stand for and gathered by
    these.  Values are told apart by their bits, so a row's triple is
    exactly the one that was indexed.
    """

    def __init__(self, bank: ActuatorBank) -> None:
        #: ``(L, 3)``: row ``i`` is the (freq_ghz, idle_frac, balloon_level)
        #: of joint index ``i``.  Replaced, never written, when it grows.
        self.triples = bank.level_grid()
        self.n_grid = len(self.triples)
        self.values = [actuator.levels.tolist() for actuator in bank.actuators]
        self._sizes = [len(values) for values in self.values]
        #: ``(L, 3)``: each row's position in the per-actuator :attr:`values`.
        self.columns = np.stack(np.unravel_index(np.arange(self.n_grid), self._sizes), axis=1)
        self._positions = [
            {_VALUE_BITS(value): column for column, value in enumerate(values)}
            for values in self.values
        ]
        self._rows: dict[bytes, int] = {}

    def __len__(self) -> int:
        return len(self.triples)

    def index(self, settings) -> int:
        """The joint index of a ``(freq_ghz, idle_frac, balloon_level)`` triple.

        ``settings`` is an :class:`ActuatorSettings` or any triple of
        floats; a triple off the grid is appended first.
        """
        triple = tuple(settings)
        key = _TRIPLE_BITS(*triple)
        index = self._rows.get(key)
        if index is None:
            index = self._rows[key] = self._add(triple, key)
        return index

    def _add(self, triple: tuple, key: bytes) -> int:
        """The row of a triple not looked up before, appended if off the grid.

        ``key`` is the triple's bits, eight bytes per value.
        """
        columns = []
        for actuator, value in enumerate(triple):
            positions = self._positions[actuator]
            column = positions.get(key[8 * actuator:8 * actuator + 8])
            if column is None:
                column = positions[key[8 * actuator:8 * actuator + 8]] = len(positions)
                self.values[actuator].append(value)
            columns.append(column)
        freq, idle, balloon = columns
        n_freq, n_idle, n_balloon = self._sizes
        if freq < n_freq and idle < n_idle and balloon < n_balloon:
            return (freq * n_idle + idle) * n_balloon + balloon
        self.triples = np.concatenate([self.triples, [triple]])
        self.columns = np.concatenate([self.columns, [columns]])
        return len(self.triples) - 1
