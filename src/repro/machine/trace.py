"""Recorded execution traces.

A :class:`Trace` is the primary artifact every experiment operates on: the
tick-resolution true power of the measured domain, plus per-control-interval
logs of what the defense saw and did.  Attackers never read ``power_w``
directly — they resample it through a sensor model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Trace"]

def _exact(a, b) -> bool:
    """Array-exact float comparison in which NaNs compare equal."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))


@dataclass
class Trace:
    """One run of a workload on a machine under a defense."""

    workload: str
    platform: str
    defense: str
    tick_s: float
    interval_s: float
    #: True per-tick power of the measured domain (W).
    power_w: np.ndarray
    #: Power the defense measured at each control interval (W).
    measured_w: np.ndarray
    #: Mask/target power per interval (NaN when the defense has no target).
    target_w: np.ndarray
    #: Actuator settings applied during each interval: columns are
    #: (freq_ghz, idle_frac, balloon_level).
    settings: np.ndarray
    #: Wall-clock time at which the application finished (NaN if it was
    #: still running when recording stopped).
    completed_at_s: float
    #: Per-tick temperature (empty unless requested).
    temperature_c: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def duration_s(self) -> float:
        return self.power_w.size * self.tick_s

    @property
    def n_intervals(self) -> int:
        return self.measured_w.size

    @property
    def energy_j(self) -> float:
        return float(self.power_w.sum() * self.tick_s)

    @property
    def average_power_w(self) -> float:
        return float(self.power_w.mean())

    @property
    def completed(self) -> bool:
        return bool(np.isfinite(self.completed_at_s))

    def tracking_error(self) -> np.ndarray:
        """Per-interval |target - measured|, for intervals with a target."""
        valid = np.isfinite(self.target_w)
        return np.abs(self.target_w[valid] - self.measured_w[valid])

    def equals(self, other: "Trace") -> bool:
        """Bit-exact equality (NaN-tolerant) — the determinism test oracle."""
        if not isinstance(other, Trace):
            return False
        return (
            self.workload == other.workload
            and self.platform == other.platform
            and self.defense == other.defense
            and _exact(
                [self.tick_s, self.interval_s, self.completed_at_s],
                [other.tick_s, other.interval_s, other.completed_at_s],
            )
            and _exact(self.power_w, other.power_w)
            and _exact(self.measured_w, other.measured_w)
            and _exact(self.target_w, other.target_w)
            and _exact(self.settings, other.settings)
            and _exact(self.temperature_c, other.temperature_c)
        )

    def summary(self) -> dict:
        """Compact numeric summary used in example scripts and tests."""
        out = {
            "workload": self.workload,
            "defense": self.defense,
            "duration_s": round(self.duration_s, 3),
            "avg_power_w": round(self.average_power_w, 3),
            "energy_j": round(self.energy_j, 1),
            "completed_at_s": (
                round(self.completed_at_s, 3) if self.completed else None
            ),
        }
        err = self.tracking_error()
        if err.size:
            out["mean_tracking_error_w"] = round(float(err.mean()), 3)
        return out
