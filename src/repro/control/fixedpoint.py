"""Fixed-point controller arithmetic (Section VII-E / Table I).

The paper notes the Equation-1 controller "needs ~200 fixed-point
operations" and "less than 1 KByte of storage" — i.e. a firmware
implementation stores the (A, B, C, D) matrices in a fixed-point format.
:class:`FixedPointController` quantizes the synthesized matrices to a Qm.n
format and evaluates Equation 1 in integer arithmetic, letting tests verify
that firmware-grade precision preserves the controller's behaviour.

Two firmware-safety details matter for the static certification in
:mod:`repro.lint.certify`:

* quantization *saturates* values outside the representable range, and
  :meth:`FixedPointFormat.saturation_mask` exposes which entries were hit —
  :class:`FixedPointController` refuses (by default) to build from matrices
  that saturate, because a clipped matrix is a different controller than
  the one that was proven stable;
* :meth:`FixedPointFormat.multiply` rounds the post-multiply rescaling to
  nearest instead of truncating, removing the half-LSB negative bias that
  an arithmetic shift would inject into every state update.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from .statespace import StateSpace

__all__ = [
    "FixedPointFormat",
    "FixedPointController",
    "FixedPointOverflowError",
]


class FixedPointOverflowError(ValueError):
    """A value does not fit the Qm.n range and would be silently clipped."""


@dataclass(frozen=True)
class FixedPointFormat:
    """Qm.n signed fixed point: 1 sign bit, m integer bits, n fraction bits."""

    integer_bits: int = 7
    fraction_bits: int = 24

    def __post_init__(self) -> None:
        if self.integer_bits < 1 or self.fraction_bits < 1:
            raise ValueError("need at least one integer and one fraction bit")
        if self.total_bits > 63:
            raise ValueError("format exceeds 64-bit words")

    @property
    def total_bits(self) -> int:
        return 1 + self.integer_bits + self.fraction_bits

    @property
    def scale(self) -> int:
        return 1 << self.fraction_bits

    @property
    def max_value(self) -> float:
        return (1 << self.integer_bits) - 2.0**-self.fraction_bits

    def describe(self) -> str:
        """Conventional name of the format, e.g. ``"Q7.24"``."""
        return f"Q{self.integer_bits}.{self.fraction_bits}"

    def saturation_mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of entries that :meth:`quantize` would clip."""
        return np.abs(np.asarray(values, dtype=float)) > self.max_value

    def saturates(self, values: np.ndarray) -> bool:
        """True if any entry falls outside the representable range."""
        return bool(np.any(self.saturation_mask(values)))

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round to the nearest representable value (as int64 raw words).

        Out-of-range values saturate at the format limits; use
        :meth:`saturation_mask` (or :class:`FixedPointController`'s
        ``on_clip`` policy) to detect that instead of relying on the
        clipped result.
        """
        values = np.clip(np.asarray(values, dtype=float), -self.max_value, self.max_value)
        return np.round(values * self.scale).astype(np.int64)

    def to_float(self, raw: np.ndarray) -> np.ndarray:
        return np.asarray(raw, dtype=np.int64) / self.scale

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fixed-point matrix multiply with round-to-nearest post-scaling.

        A plain arithmetic shift truncates toward minus infinity, which
        biases every product ~half an LSB low and drifts the controller
        state over long runs; adding half before the shift makes the
        rescaling round to nearest.
        """
        wide = a.astype(np.int64) @ b.astype(np.int64)
        half = 1 << (self.fraction_bits - 1)
        return (wide + half) >> self.fraction_bits


class FixedPointController:
    """Equation 1 evaluated entirely in fixed-point integer arithmetic.

    This mirrors what a firmware/hardware deployment executes: the state
    vector and matrices are raw integer words; each step is two quantized
    matrix-vector products.

    ``on_clip`` controls what happens when a matrix entry does not fit the
    format: ``"raise"`` (default) raises :class:`FixedPointOverflowError`,
    ``"warn"`` emits a :class:`RuntimeWarning` and saturates, ``"ignore"``
    silently saturates (the pre-certification legacy behaviour).
    """

    _ON_CLIP_POLICIES = ("raise", "warn", "ignore")

    def __init__(
        self,
        matrices: StateSpace,
        fmt: FixedPointFormat | None = None,
        *,
        on_clip: str = "raise",
    ) -> None:
        if on_clip not in self._ON_CLIP_POLICIES:
            raise ValueError(
                f"on_clip must be one of {self._ON_CLIP_POLICIES}, got {on_clip!r}"
            )
        self.fmt = fmt or FixedPointFormat()
        self.float_matrices = matrices
        self._check_saturation(matrices, on_clip)
        self._a = self.fmt.quantize(matrices.a)
        self._b = self.fmt.quantize(matrices.b)
        self._c = self.fmt.quantize(matrices.c)
        self._d = self.fmt.quantize(matrices.d)
        self._x = np.zeros(matrices.n_states, dtype=np.int64)

    def _check_saturation(self, matrices: StateSpace, on_clip: str) -> None:
        # Per-matrix clipped-entry counts are recorded unconditionally so
        # the static certifier (repro.lint.certify counts the same
        # saturation masks) and the telemetry stream always agree.
        self.clipped_by_matrix = {
            name: int(np.count_nonzero(self.fmt.saturation_mask(matrix)))
            for name, matrix in (
                ("A", matrices.a),
                ("B", matrices.b),
                ("C", matrices.c),
                ("D", matrices.d),
            )
        }
        self.clipped_entries = sum(self.clipped_by_matrix.values())
        if on_clip == "ignore" or not self.clipped_entries:
            return
        clipped = [name for name, n in self.clipped_by_matrix.items() if n]
        detail = (
            f"matrix entries of {', '.join(clipped)} exceed the "
            f"{self.fmt.describe()} range (±{self.fmt.max_value:.6g}); "
            "the quantized controller would differ from the certified one"
        )
        if on_clip == "raise":
            raise FixedPointOverflowError(detail)
        warnings.warn(detail, RuntimeWarning, stacklevel=3)
        telemetry.count("control.fixedpoint.clip_events")
        telemetry.count("control.fixedpoint.clipped_entries", self.clipped_entries)

    @property
    def n_states(self) -> int:
        return self._x.size

    def reset(self) -> None:
        self._x = np.zeros_like(self._x)

    def step(self, error: float) -> np.ndarray:
        """One Equation-1 evaluation; returns the command vector (floats)."""
        e_raw = self.fmt.quantize(np.array([error]))
        u_raw = self.fmt.multiply(self._c, self._x) + self.fmt.multiply(self._d, e_raw)
        self._x = self.fmt.multiply(self._a, self._x) + self.fmt.multiply(self._b, e_raw)
        return self.fmt.to_float(u_raw)

    def storage_bytes(self) -> int:
        """Matrix + state storage at the word size the format needs."""
        word_bytes = 4 if self.fmt.total_bits <= 32 else 8
        n_words = self._a.size + self._b.size + self._c.size + self._d.size + self._x.size
        return n_words * word_bytes

    def max_quantization_error(self) -> float:
        """Worst matrix-entry rounding error introduced by the format."""
        errs = []
        for raw, exact in (
            (self._a, self.float_matrices.a),
            (self._b, self.float_matrices.b),
            (self._c, self.float_matrices.c),
            (self._d, self.float_matrices.d),
        ):
            errs.append(np.max(np.abs(self.fmt.to_float(raw) - exact)))
        return float(max(errs))
