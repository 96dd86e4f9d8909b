"""Figure 7: summary statistics of averaged signals per defense.

For each application the paper averages many raw traces and box-plots the
power-value distribution of the averaged signal.  An effective defense makes
the distributions near-identical across applications; the paper's measure of
that is visible box similarity.  We quantify it as the spread of per-app
medians relative to the power scale, plus pairwise histogram overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..analysis import BoxStats, average_traces, box_stats, distribution_overlap
from ..defenses.designs import DefenseFactory
from ..machine import SYS1, PlatformSpec
from .common import experiment_apps, make_factory, record_traces, sample_rapl
from .config import ExperimentScale, get_scale

__all__ = ["Fig7Result", "DEFENSES", "run"]

DEFENSES = ("noisy_baseline", "random_inputs", "maya_constant", "maya_gs")


@dataclass(frozen=True)
class Fig7Result:
    #: Per defense, per app: box statistics of the averaged trace.
    boxes: dict[str, dict[str, BoxStats]]
    #: Per defense: spread of app medians (max - min), watts.
    median_spread_w: dict[str, float]
    #: Per defense: mean pairwise histogram overlap of averaged traces.
    mean_overlap: dict[str, float]
    apps: tuple[str, ...]

    def table(self) -> str:
        lines = [f"{'design':<16}{'median spread (W)':>19}{'overlap':>9}"]
        for name in self.boxes:
            lines.append(
                f"{name:<16}{self.median_spread_w[name]:>19.2f}"
                f"{self.mean_overlap[name]:>9.2f}"
            )
        return "\n".join(lines)


def run(
    scale: "str | ExperimentScale" = "default",
    seed: int = 0,
    spec: PlatformSpec = SYS1,
    defenses: tuple[str, ...] = DEFENSES,
    factory: DefenseFactory | None = None,
) -> Fig7Result:
    scale = get_scale(scale)
    if factory is None:
        factory = make_factory(spec, scale, seed=seed)
    apps = experiment_apps(scale)

    boxes: dict[str, dict[str, BoxStats]] = {}
    spreads: dict[str, float] = {}
    overlaps: dict[str, float] = {}
    for defense in defenses:
        averaged: dict[str, np.ndarray] = {}
        for app in apps:
            traces = record_traces(
                spec, app, factory, defense,
                n_runs=scale.average_runs, duration_s=scale.duration_s,
                seed=seed, tag="fig7",
            )
            sampled = [
                sample_rapl(trace, seed, (defense, app, i))
                for i, trace in enumerate(traces)
            ]
            averaged[app] = average_traces(sampled)
        boxes[defense] = {app: box_stats(avg) for app, avg in averaged.items()}
        medians = [stats.median for stats in boxes[defense].values()]
        spreads[defense] = float(max(medians) - min(medians))
        pair_overlaps = [
            distribution_overlap(averaged[a], averaged[b])
            for a, b in combinations(apps, 2)
        ]
        overlaps[defense] = float(np.mean(pair_overlaps))

    return Fig7Result(
        boxes=boxes, median_spread_w=spreads, mean_overlap=overlaps, apps=apps
    )
