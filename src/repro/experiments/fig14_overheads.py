"""Figure 14 + Section VII-E energy: power/performance overheads.

Each application runs to completion under every Table V design; power and
execution time are normalized to the insecure Baseline.  Paper results
(averages across the 11 applications on Sys1):

* power:   Noisy -30%, Random Inputs -31%, Maya Constant -11%, Maya GS -29%
* time:    Noisy +100%, Random Inputs +127%, Maya Constant +124%, Maya GS +47%
* energy:  Maya GS ~= Baseline (lower power x longer time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..defenses.designs import DefenseFactory
from ..exec import SessionJob, run_sessions
from ..machine import SYS1, PlatformSpec, Trace
from ..workloads import parsec_program
from .common import experiment_apps, make_factory
from .config import ExperimentScale, get_scale

__all__ = ["Fig14Result", "DEFENSES", "PAPER_POWER", "PAPER_TIME", "run"]

DEFENSES = ("noisy_baseline", "random_inputs", "maya_constant", "maya_gs")

PAPER_POWER = {
    "noisy_baseline": 0.70, "random_inputs": 0.69,
    "maya_constant": 0.89, "maya_gs": 0.71,
}
PAPER_TIME = {
    "noisy_baseline": 2.00, "random_inputs": 2.27,
    "maya_constant": 2.24, "maya_gs": 1.47,
}


@dataclass(frozen=True)
class Fig14Result:
    #: Per defense, per app: power normalized to Baseline.
    power_ratio: dict[str, dict[str, float]]
    #: Per defense, per app: execution time normalized to Baseline.
    time_ratio: dict[str, dict[str, float]]
    #: Per app: baseline absolute numbers for reference.
    baseline_power_w: dict[str, float]
    baseline_time_s: dict[str, float]

    def mean_power_ratio(self, defense: str) -> float:
        return float(np.mean(list(self.power_ratio[defense].values())))

    def mean_time_ratio(self, defense: str) -> float:
        return float(np.mean(list(self.time_ratio[defense].values())))

    def mean_energy_ratio(self, defense: str) -> float:
        ratios = [
            self.power_ratio[defense][app] * self.time_ratio[defense][app]
            for app in self.power_ratio[defense]
        ]
        return float(np.mean(ratios))

    def table(self) -> str:
        lines = [
            f"{'design':<16}{'power':>7}{'(paper)':>9}{'time':>7}{'(paper)':>9}{'energy':>8}"
        ]
        for name in self.power_ratio:
            lines.append(
                f"{name:<16}{self.mean_power_ratio(name):>7.2f}"
                f"{PAPER_POWER.get(name, float('nan')):>9.2f}"
                f"{self.mean_time_ratio(name):>7.2f}"
                f"{PAPER_TIME.get(name, float('nan')):>9.2f}"
                f"{self.mean_energy_ratio(name):>8.2f}"
            )
        return "\n".join(lines)


def _completion_job(spec, app, factory, defense, seed, max_duration_s) -> SessionJob:
    return SessionJob.for_factory(
        factory,
        spec=spec,
        workload=app,
        defense=defense,
        seed=seed,
        run_id=("fig14", defense, app),
        duration_s=None,
        max_duration_s=max_duration_s,
        tail_s=0.2,
    )


def _power_and_completion(trace: Trace) -> tuple[float, float]:
    if not trace.completed:
        # Capped: report the cap (a conservative under-estimate of the
        # slowdown) rather than dropping the point.
        completion = trace.duration_s
    else:
        completion = trace.completed_at_s
    n_ticks = int(round(completion / trace.tick_s))
    avg_power = float(trace.power_w[:n_ticks].mean())
    return avg_power, completion


def run(
    scale: "str | ExperimentScale" = "default",
    seed: int = 0,
    spec: PlatformSpec = SYS1,
    defenses: tuple[str, ...] = DEFENSES,
    factory: DefenseFactory | None = None,
    max_slowdown: float = 6.0,
) -> Fig14Result:
    scale = get_scale(scale)
    if factory is None:
        factory = make_factory(spec, scale, seed=seed)
    apps = experiment_apps(scale)

    baseline_power: dict[str, float] = {}
    baseline_time: dict[str, float] = {}
    power_ratio: dict[str, dict[str, float]] = {d: {} for d in defenses}
    time_ratio: dict[str, dict[str, float]] = {d: {} for d in defenses}

    # Every (app, design) run-to-completion session is independent, so the
    # whole grid is submitted as one batch and normalized afterwards.
    jobs: list[SessionJob] = []
    labels: list[tuple[str, str]] = []
    for app in apps:
        cap = max_slowdown * parsec_program(app).nominal_duration_s()
        for defense in ("baseline",) + tuple(defenses):
            jobs.append(_completion_job(spec, app, factory, defense, seed, cap))
            labels.append((app, defense))
    traces = run_sessions(jobs, factory=factory)

    measured = {
        label: _power_and_completion(trace)
        for label, trace in zip(labels, traces)
    }
    for app in apps:
        base_p, base_t = measured[(app, "baseline")]
        baseline_power[app] = base_p
        baseline_time[app] = base_t
        for defense in defenses:
            power, duration = measured[(app, defense)]
            power_ratio[defense][app] = power / base_p
            time_ratio[defense][app] = duration / base_t

    return Fig14Result(
        power_ratio=power_ratio,
        time_ratio=time_ratio,
        baseline_power_w=baseline_power,
        baseline_time_s=baseline_time,
    )
