"""Mask generators: the target-power functions of Section IV-C.

A mask generator emits one target power value per control interval.  All of
the paper's masks share the same re-randomization scheme: a parameter set is
drawn, used for ``N_hold`` samples, then re-drawn; ``N_hold`` itself varies
randomly between 6 and 120 samples (Section V-B).  :class:`SegmentedMask`
implements that machinery; concrete masks implement parameter drawing and
the evaluation of a whole segment (one sized RNG draw and one array
expression per run of samples that share a parameter set).

:meth:`MaskGenerator.generate` is the one way targets are produced: the
control loop draws a block of targets per session ahead of time, and
``next_target`` draws one sample the way ``generate(1)`` does, through the
same segment code evaluated at a scalar index.  A generator fills a size-n
request exactly as n scalar draws, so splitting a stream between calls at
any point yields the same targets and leaves the same RNG state.

Every mask respects two constraints from the paper:

* the target never exceeds the platform's TDP (enforced through the
  ``power_range`` the mask is constructed with);
* sinusoidal masks keep their frequency at or below the Nyquist rate of the
  power-sampling loop.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MaskGenerator",
    "SegmentedMask",
    "NHOLD_RANGE",
]

#: Section V-B: parameters are held for 6..120 samples.
NHOLD_RANGE: tuple[int, int] = (6, 120)


class MaskGenerator(abc.ABC):
    """Produces the target power sequence r(T)."""

    def __init__(self, power_range: tuple[float, float], rng: np.random.Generator) -> None:
        low, high = float(power_range[0]), float(power_range[1])
        if not low < high:
            raise ValueError("power_range must satisfy low < high")
        self.low_w = low
        self.high_w = high
        self._rng = rng

    @property
    def span_w(self) -> float:
        return self.high_w - self.low_w

    @property
    def name(self) -> str:
        return type(self).__name__

    @abc.abstractmethod
    def generate(self, n_samples: int) -> np.ndarray:
        """The target powers (watts) of the next ``n_samples`` intervals."""

    def next_target(self) -> float:
        """The target power (watts) for the next control interval."""
        return float(self.generate(1)[0])

    def reset(self) -> None:
        """Start a fresh segment schedule (keeps the RNG stream)."""

    def _clip(self, value: float) -> float:
        # Same result as np.clip for every float, NaN included, without
        # numpy's per-call dispatch on a scalar.
        return float(min(max(value, self.low_w), self.high_w))


class SegmentedMask(MaskGenerator):
    """Base for masks that re-draw their parameters every N_hold samples."""

    def __init__(
        self,
        power_range: tuple[float, float],
        rng: np.random.Generator,
        nhold_range: tuple[int, int] = NHOLD_RANGE,
    ) -> None:
        super().__init__(power_range, rng)
        if not 1 <= nhold_range[0] <= nhold_range[1]:
            raise ValueError("invalid nhold_range")
        self.nhold_range = nhold_range
        self._samples_left = 0
        self._sample_index = 0

    def reset(self) -> None:
        self._samples_left = 0
        self._sample_index = 0

    def generate(self, n_samples: int) -> np.ndarray:
        """The next ``n_samples`` targets, one segment at a time.

        Each run of samples that shares a parameter set is evaluated by one
        :meth:`_segment` call; a segment split between two calls resumes
        where the first left it.  Clipping to the band is elementwise.
        """
        targets_w = np.empty(n_samples, dtype=np.float64)
        filled = 0
        while filled < n_samples:
            self._renew()
            count = min(self._samples_left, n_samples - filled)
            start = self._sample_index
            # Global sample indices, exact in float64.
            indices = np.arange(start, start + count, dtype=np.float64)
            targets_w[filled:filled + count] = self._segment(indices, self._rng)
            self._samples_left -= count
            self._sample_index += count
            filled += count
        return np.minimum(np.maximum(targets_w, self.low_w), self.high_w)

    def next_target(self) -> float:
        """One sample, as ``generate(1)`` draws it, without its arrays.

        The segment code runs at the scalar sample index, which gives each
        operation the bits of that element of an array evaluation, and
        :meth:`_clip` clips like the array clip.
        """
        self._renew()
        value = self._segment(np.float64(self._sample_index), self._rng)
        self._samples_left -= 1
        self._sample_index += 1
        return self._clip(float(value))

    def _renew(self) -> None:
        """Draw N_hold and a parameter set when the current segment is spent."""
        if self._samples_left == 0:
            self._samples_left = int(
                self._rng.integers(self.nhold_range[0], self.nhold_range[1] + 1)
            )
            self._draw_parameters(self._rng)

    @abc.abstractmethod
    def _draw_parameters(self, rng: np.random.Generator) -> None:
        """Draw a fresh parameter set for the next segment."""

    @abc.abstractmethod
    def _segment(self, indices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Unclipped targets at the global sample ``indices`` (current parameters).

        ``indices`` is a float64 array, or one float64 scalar (a scalar
        or 0-d result).  Per-sample noise comes from one ``rng`` draw of
        ``indices.shape`` (a scalar draw for a scalar index), which fills
        the array exactly as one scalar draw per sample would.
        """
