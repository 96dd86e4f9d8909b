"""Figure 15: defending against PLATYPUS-type attacks.

Tight loops of ``imul``, ``mov`` and ``xor`` run on the Baseline and under
Maya GS; the averaged power traces of the three instructions are clearly
separated on the Baseline and practically indistinguishable under Maya GS.

We quantify separation as the minimum pairwise gap between the averaged
traces' means, in units of the pooled traces' standard deviation (a
d-prime-style measure), and additionally run a nearest-mean classifier on
single averaged windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..analysis import average_traces
from ..defenses.designs import DefenseFactory
from ..exec import SessionJob, run_sessions
from ..machine import SYS1, PlatformSpec
from ..workloads import INSTRUCTION_LOOPS
from .common import make_factory, sample_rapl
from .config import ExperimentScale, get_scale

__all__ = ["Fig15Result", "run"]


@dataclass(frozen=True)
class Fig15Result:
    #: Per design, per instruction: the averaged power trace.
    averages: dict[str, dict[str, np.ndarray]]
    #: Per design: minimum pairwise mean gap / pooled std.
    separation: dict[str, float]
    #: Per design: accuracy of a nearest-mean classifier on run averages.
    classifier_accuracy: dict[str, float]

    def table(self) -> str:
        lines = [f"{'design':<12}{'separation':>11}{'clf accuracy':>14}"]
        for name in self.averages:
            lines.append(
                f"{name:<12}{self.separation[name]:>11.2f}"
                f"{self.classifier_accuracy[name]:>14.2f}"
            )
        return "\n".join(lines)


def run(
    scale: "str | ExperimentScale" = "default",
    seed: int = 0,
    spec: PlatformSpec = SYS1,
    duration_s: float = 8.0,
    factory: DefenseFactory | None = None,
) -> Fig15Result:
    scale = get_scale(scale)
    if factory is None:
        factory = make_factory(spec, scale, seed=seed)
    n_runs = max(scale.average_runs // 2, 8)

    # One declarative job per (design, instruction, run): the whole grid
    # fans out through the execution layer in a single batch.
    jobs = [
        SessionJob.for_factory(
            factory,
            spec=spec,
            workload=f"loop_{instruction}",
            workload_kwargs={"duration_s": duration_s * 2},
            defense=defense,
            seed=seed,
            run_id=("fig15", defense, instruction, run_index),
            duration_s=duration_s,
        )
        for defense in ("baseline", "maya_gs")
        for instruction in INSTRUCTION_LOOPS
        for run_index in range(n_runs)
    ]
    traces = iter(run_sessions(jobs, factory=factory))

    averages: dict[str, dict[str, np.ndarray]] = {}
    separation: dict[str, float] = {}
    accuracy: dict[str, float] = {}
    for defense in ("baseline", "maya_gs"):
        averages[defense] = {}
        run_means: dict[str, np.ndarray] = {}
        for instruction in INSTRUCTION_LOOPS:
            sampled = []
            for run_index in range(n_runs):
                run_id = ("fig15", defense, instruction, run_index)
                sampled.append(sample_rapl(next(traces), seed, run_id))
            averages[defense][instruction] = average_traces(sampled)
            run_means[instruction] = np.asarray([s.mean() for s in sampled])

        # Separation of the averaged traces (what Figure 15a/b shows).
        means = {ins: avg.mean() for ins, avg in averages[defense].items()}
        stds = [avg.std() for avg in averages[defense].values()]
        pooled_std = max(float(np.mean(stds)), 1e-9)
        gaps = [
            abs(means[a] - means[b]) for a, b in combinations(INSTRUCTION_LOOPS, 2)
        ]
        separation[defense] = float(min(gaps) / pooled_std)

        # Leave-one-out nearest-class-mean on per-run average power.
        labels = []
        values = []
        for idx, ins in enumerate(INSTRUCTION_LOOPS):
            labels.extend([idx] * run_means[ins].size)
            values.extend(run_means[ins])
        labels = np.asarray(labels)
        values = np.asarray(values)
        hits = 0
        for i in range(values.size):
            mask = np.arange(values.size) != i
            centroids = [
                values[mask][labels[mask] == c].mean()
                for c in range(len(INSTRUCTION_LOOPS))
            ]
            hits += int(np.argmin(np.abs(values[i] - np.asarray(centroids))) == labels[i])
        accuracy[defense] = hits / values.size

    return Fig15Result(
        averages=averages, separation=separation, classifier_accuracy=accuracy
    )
