"""Change-point detection (Section VII-B, Figure 11).

The paper uses MATLAB's ``findchangepts`` to recover application phases
from power traces.  We implement the PELT algorithm (Killick et al., 2012)
with the Gaussian likelihood cost for a simultaneous change in mean and
variance over a single segment-cost implementation.  The scan takes the
segment ends in blocks of ``min_size``: one cost evaluation scores every
(candidate, end) pair of a block, and the result equals the serial scan's
(DESIGN.md §7b).

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

    def costs(self, starts: np.ndarray, end: "int | np.ndarray") -> np.ndarray:
        """Cost of signal[s:e] (e exclusive) for every pair of ``starts``
        and ``end`` (broadcast against each other).

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
    # A zero-length segment never scores (its end is skipped), so a
    # min_size of 0 segments like 1.
    min_size = max(min_size, 1)

    cost = SegmentCost(signal)
    # f[t]: optimal cost of signal[0:t]; partial candidate set per PELT.
    f = np.full(n + 1, np.inf)
    f[0] = -penalty
    last_change = np.zeros(n + 1, dtype=int)
    candidates = np.zeros(1, dtype=np.int64)
    for t0 in range(min_size, n + 1, min_size):
        ends = np.arange(t0, min(t0 + min_size, n + 1))
        candidates = _scan_block(cost, f, last_change, candidates, ends, min_size, penalty)

    changepoints = []
    t = n
    while t > 0:
        s = last_change[t]
        if s == 0:
            break
        changepoints.append(s)
        t = s
    return sorted(changepoints)


def _scan_block(
    cost: SegmentCost,
    f: np.ndarray,
    last_change: np.ndarray,
    candidates: np.ndarray,
    ends: np.ndarray,
    min_size: int,
    penalty: float,
) -> np.ndarray:
    """PELT's step for each of ``ends`` (at most ``min_size`` consecutive
    segment ends); fills ``f`` and ``last_change`` and returns the
    candidates that survive the block.

    A candidate that scores at an end of the block starts before the
    block, so its ``f`` is known, and one added inside the block is too
    young to score in it: one cost evaluation scores the whole block.
    Each end's winner is the first minimum of its row, as the serial
    scan's strict ``<`` picks; if a winner was pruned at an earlier end of
    the block, the block is scored again from that end without the
    candidates pruned before it.
    """
    scoring = int(np.searchsorted(candidates, ends[-1] - min_size, side="right"))
    if scoring == 0:
        return candidates
    width, count = ends.size, candidates.size
    steps = np.arange(width)
    earlier = steps < steps[:, None]  # earlier[j, k]: end k comes before end j
    f_start = f[candidates]
    # judged[j, i]: what pruning at end j judges candidate i on, its score
    # or, while it is too young to score, f[s].  The last ``width``
    # columns are the candidates this block adds.
    judged = np.empty((width, count + width))
    np.add(
        f_start[:scoring] + cost.costs(candidates[:scoring], ends[:, None]),
        penalty,
        out=judged[:, :scoring],
    )
    judged[:, scoring:count] = f_start[scoring:]
    # Only candidates after the first end's scoring prefix can be too young.
    full = int(np.searchsorted(candidates, ends[0] - min_size, side="right"))
    young = candidates[full:scoring] > ends[:, None] - min_size
    masked = judged[:, :scoring].copy()
    masked[:, full:][young] = np.inf
    np.copyto(judged[:, full:scoring], f_start[full:scoring], where=young)
    while True:
        winners = np.argmin(masked, axis=1)
        best = masked[steps, winners]
        finite = np.isfinite(best)
        f[ends] = np.where(finite, best, np.inf)
        # A block candidate is judged from the end after its own; -inf keeps it before.
        judged[:, count:] = np.where(earlier, f[ends], -np.inf)
        # PELT pruning: drop a candidate whose score, less the penalty it
        # could still save, exceeds the best.  Too-young ones are judged on
        # f[s] alone, which assumes their future segment costs are >= 0.
        # An end without a finite best prunes nothing.
        kept = (judged - penalty <= best[:, None]) | ~finite[:, None]
        lost = np.flatnonzero(finite & (earlier.T & ~kept[:, winners]).any(axis=0))
        if lost.size == 0:
            break
        first = lost[0]
        masked[first:, ~np.logical_and.reduce(kept[:first, :scoring], axis=0)] = np.inf

    last_change[ends[finite]] = candidates[winners[finite]]
    survives = np.logical_and.reduce(kept, axis=0)
    survives[count:] &= finite
    return np.concatenate([candidates, ends])[survives]


def changepoint_times(
    signal: np.ndarray, interval_s: float, penalty: float | None = None, min_size: int = 5
) -> np.ndarray:
    """Change-point locations in seconds."""
    return np.asarray(pelt(signal, penalty, min_size), dtype=float) * interval_s
