"""First-order RC thermal model.

Temperature is a physically low-passed image of power (the paper notes that
temperature and EM side channels follow power, Section I).  The model keeps
a single lumped thermal node:

    C * dT/dt = P - (T - T_amb) / R

discretized at the simulation tick.  It is used for completeness of the
"physical signals" story (masking power also masks temperature) and is
exercised by the analysis tests.
"""

from __future__ import annotations

import numpy as np

from .power import first_order_rows

__all__ = ["ThermalModel"]


class ThermalModel:
    """Lumped RC thermal node driven by the domain power."""

    def __init__(
        self,
        ambient_c: float = 35.0,
        resistance_c_per_w: float = 0.9,
        time_constant_s: float = 8.0,
    ) -> None:
        if time_constant_s <= 0:
            raise ValueError("time_constant_s must be positive")
        if resistance_c_per_w <= 0:
            raise ValueError("resistance_c_per_w must be positive")
        self.ambient_c = ambient_c
        self.resistance_c_per_w = resistance_c_per_w
        self.time_constant_s = time_constant_s
        self.temperature_c = ambient_c

    def reset(self, temperature_c: float | None = None) -> None:
        self.temperature_c = self.ambient_c if temperature_c is None else temperature_c

    def steady_state(self, power_w: float) -> float:
        """Equilibrium temperature for a constant power level."""
        return self.ambient_c + self.resistance_c_per_w * power_w

    def advance(self, power_w: np.ndarray, tick_s: float) -> np.ndarray:
        """Step the node through a window of per-tick powers.

        Returns the per-tick temperature trace.  Uses the exact
        discretization of the linear ODE for a piecewise-constant input,
        which is stable for any tick length.
        """
        power_w = np.asarray(power_w, dtype=float)
        if power_w.size == 0:
            return np.empty(0)
        alpha = float(np.exp(-tick_s / self.time_constant_s))
        targets_c = self.ambient_c + self.resistance_c_per_w * power_w
        # temp[i] = alpha * temp[i-1] + (1 - alpha) * target[i]
        temps_c, (self.temperature_c,) = first_order_rows(
            1.0 - alpha, alpha, [targets_c.tolist()], [self.temperature_c]
        )
        return temps_c[0]
