"""Figure 10: averaged traces of three applications under each defense.

The paper averages 1,000 traces of blackscholes, bodytrack and
water_nsquared (labels 0, 1, 9) and shows that only Maya GS makes the
averaged traces indistinguishable.  We reproduce the averaged series and
quantify distinguishability as the mean pairwise RMS distance between the
averaged traces, normalized by the defense's power scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..analysis import average_traces
from ..defenses.designs import DefenseFactory
from ..machine import SYS1, PlatformSpec
from .common import make_factory, record_traces, sample_rapl
from .config import ExperimentScale, get_scale

__all__ = ["Fig10Result", "APPS", "DEFENSES", "run"]

APPS = ("blackscholes", "bodytrack", "water_nsquared")
DEFENSES = ("noisy_baseline", "random_inputs", "maya_constant", "maya_gs")


@dataclass(frozen=True)
class Fig10Result:
    #: Per defense, per app: the averaged trace.
    averages: dict[str, dict[str, np.ndarray]]
    #: Per defense: mean pairwise RMS distance between averaged traces,
    #: divided by the mean power (dimensionless distinguishability).
    separation: dict[str, float]

    def table(self) -> str:
        lines = [f"{'design':<16}{'avg-trace separation':>21}"]
        for name, value in self.separation.items():
            lines.append(f"{name:<16}{value:>21.3f}")
        return "\n".join(lines)


def run(
    scale: "str | ExperimentScale" = "default",
    seed: int = 0,
    spec: PlatformSpec = SYS1,
    apps: tuple[str, ...] = APPS,
    defenses: tuple[str, ...] = DEFENSES,
    factory: DefenseFactory | None = None,
) -> Fig10Result:
    scale = get_scale(scale)
    if factory is None:
        factory = make_factory(spec, scale, seed=seed)

    averages: dict[str, dict[str, np.ndarray]] = {}
    separation: dict[str, float] = {}
    for defense in defenses:
        averages[defense] = {}
        for app in apps:
            traces = record_traces(
                spec, app, factory, defense,
                n_runs=scale.average_runs, duration_s=scale.duration_s,
                seed=seed, tag="fig10",
            )
            sampled = [
                sample_rapl(trace, seed, (defense, app, i))
                for i, trace in enumerate(traces)
            ]
            averages[defense][app] = average_traces(sampled)

        length = min(avg.size for avg in averages[defense].values())
        series = {app: avg[:length] for app, avg in averages[defense].items()}
        scale_w = float(np.mean([avg.mean() for avg in series.values()]))
        distances = [
            np.sqrt(np.mean((series[a] - series[b]) ** 2)) / scale_w
            for a, b in combinations(apps, 2)
        ]
        separation[defense] = float(np.mean(distances))

    return Fig10Result(averages=averages, separation=separation)
