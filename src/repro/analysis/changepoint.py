"""Change-point detection (Section VII-B, Figure 11).

The paper uses MATLAB's ``findchangepts`` to recover application phases
from power traces.  We implement the PELT algorithm (Killick et al., 2012)
with the Gaussian likelihood cost for a simultaneous change in mean and
variance, as one vectorized scan over a single segment-cost implementation.

PELT targets  sum_i cost(segment_i) + penalty * n_changepoints  in
near-linear time thanks to its pruning rule.  With a minimum segment size
the rule is not exact: it can prune a candidate that would later win, so
the result may cost more than unpruned optimal partitioning's (measured in
DESIGN.md §7b).  Fig. 11's pinned digests keep the rule as it is.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gaussian_cost", "pelt", "changepoint_times"]


def gaussian_cost(signal: np.ndarray) -> "SegmentCost":
    """Precompute cumulative statistics for O(1) segment costs."""
    return SegmentCost(signal)


class SegmentCost:
    """Twice the negative Gaussian log-likelihood of a segment."""

    #: Variance floor: prevents -inf costs on constant segments.
    MIN_VAR = 1e-8

    def __init__(self, signal: np.ndarray) -> None:
        signal = np.asarray(signal, dtype=float).reshape(-1)
        self.n = signal.size
        self._cum = np.concatenate([[0.0], np.cumsum(signal)])
        self._cum2 = np.concatenate([[0.0], np.cumsum(signal**2)])

    def costs(self, starts: np.ndarray, end: int) -> np.ndarray:
        """Cost of signal[s:end] (end exclusive) for every s in ``starts``.

        ``float_power`` squares through libm ``pow``, as a scalar ``** 2``
        does; an array ``** 2`` multiplies, which can differ in the last ulp.
        """
        length = end - starts
        total = self._cum[end] - self._cum[starts]
        total2 = self._cum2[end] - self._cum2[starts]
        mean2 = np.float_power(total / length, 2)
        var = np.maximum(total2 / length - mean2, self.MIN_VAR)
        return length * np.log(var)

    def cost(self, start: int, end: int) -> float:
        """Cost of signal[start:end] (end exclusive)."""
        return self.costs(np.array([start]), end)[0]


def pelt(
    signal: np.ndarray,
    penalty: float | None = None,
    min_size: int = 5,
) -> list[int]:
    """Penalized change-point segmentation (PELT).

    Returns the sorted interior change-point indices (each the first index
    of a new segment).  The default penalty is the BIC-style ``3 log n``
    appropriate for the two-parameter Gaussian cost.  Not exact: the
    pruning can drop the optimal segmentation (module docstring).
    """
    signal = np.asarray(signal, dtype=float).reshape(-1)
    n = signal.size
    if n < 2 * min_size:
        return []
    if penalty is None:
        penalty = 3.0 * np.log(n)

    cost = SegmentCost(signal)
    # f[t]: optimal cost of signal[0:t]; partial candidate set per PELT.
    f = np.full(n + 1, np.inf)
    f[0] = -penalty
    last_change = np.zeros(n + 1, dtype=int)
    candidates = np.zeros(1, dtype=np.int64)

    for t in range(min_size, n + 1):
        # Candidates stay ascending, so those with t - s >= min_size are a
        # prefix, and argmin's first minimum is the strict-< tie-break of
        # a serial scan.  Too-young candidates keep f[s] as their score.
        valid = int(np.searchsorted(candidates, t - min_size, side="right"))
        if valid == 0:
            continue
        scores = f[candidates]
        scores[:valid] = scores[:valid] + cost.costs(candidates[:valid], t) + penalty
        best = int(np.argmin(scores[:valid]))
        best_cost = scores[best]
        if not np.isfinite(best_cost):
            continue
        f[t] = best_cost
        last_change[t] = candidates[best]
        # PELT pruning: drop a candidate whose score, less the penalty it
        # could still save, exceeds the best.  Too-young ones are judged on
        # f[s] alone, which assumes their future segment costs are >= 0.
        candidates = np.append(candidates[scores - penalty <= best_cost], t)

    changepoints = []
    t = n
    while t > 0:
        s = last_change[t]
        if s == 0:
            break
        changepoints.append(s)
        t = s
    return sorted(changepoints)


def changepoint_times(
    signal: np.ndarray, interval_s: float, penalty: float | None = None, min_size: int = 5
) -> np.ndarray:
    """Change-point locations in seconds."""
    return np.asarray(pelt(signal, penalty, min_size), dtype=float) * interval_s
