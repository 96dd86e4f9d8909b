"""Known-bad fixture: float64 -> float32 narrowing on a hot path.

Casting the power trace down to ``float32`` changes every downstream bit
of a trace — the hazard MAYA042 exists to flag, once for the ``astype``
cast and once for the ``dtype=`` allocation.  The ``machine/power.py``
path puts it in the rule's hot-path scope.
"""

import numpy as np

__all__ = ["narrowed_window_power", "narrowed_alloc"]


def narrowed_window_power(power_w: np.ndarray) -> np.ndarray:
    power_w = np.asarray(power_w, dtype=float)
    return power_w.astype(np.float32)


def narrowed_alloc(n_ticks: int) -> np.ndarray:
    return np.zeros(n_ticks, dtype=np.float32)
