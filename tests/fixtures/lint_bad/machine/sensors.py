"""Known-bad fixture: a hot-path reduction without a declared axis.

The ``tick_powers.sum()`` call has no ``axis``, so nothing in the source
records which order the elements are accumulated in — the hazard MAYA041
exists to flag.  The ``machine/sensors.py`` path puts it in the rule's
hot-path scope.
"""

import numpy as np

__all__ = ["LeakySensor"]


class LeakySensor:
    def measure_window(self, tick_powers: np.ndarray, tick_s: float) -> float:
        tick_powers = np.asarray(tick_powers, dtype=float)
        duration_s = tick_powers.size * tick_s
        energy_j = float(tick_powers.sum()) * tick_s
        return energy_j / duration_s
