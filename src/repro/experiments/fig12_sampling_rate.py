"""Figure 12: attacks at higher sampling frequency against Maya GS.

The attacker re-samples power at 2/5/10/20 ms while Maya still actuates
every 20 ms.  Paper result: detection accuracy stays low (near the Figure 6c
level) at every rate — faster sampling does not recover the application.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..attacks import AttackOutcome, sample_runs, simulate_runs, train_and_evaluate
from ..defenses.designs import DefenseFactory
from ..machine import SYS1, PlatformSpec
from .common import attack_scenario, experiment_apps, make_factory
from .config import ExperimentScale, get_scale

__all__ = ["Fig12Result", "SAMPLE_INTERVALS_S", "run"]

SAMPLE_INTERVALS_S = (0.002, 0.005, 0.010, 0.020)


@dataclass(frozen=True)
class Fig12Result:
    outcomes: dict[float, AttackOutcome]
    chance: float

    @property
    def accuracies(self) -> dict[float, float]:
        return {ival: out.average_accuracy for ival, out in self.outcomes.items()}

    def table(self) -> str:
        lines = [f"{'interval':>9}{'accuracy':>10}{'chance':>8}"]
        for interval, out in sorted(self.outcomes.items()):
            lines.append(
                f"{interval * 1e3:>7.0f}ms{out.average_accuracy:>10.0%}{self.chance:>7.0%}"
            )
        return "\n".join(lines)


def run(
    scale: "str | ExperimentScale" = "default",
    seed: int = 0,
    spec: PlatformSpec = SYS1,
    intervals_s: tuple[float, ...] = SAMPLE_INTERVALS_S,
    factory: DefenseFactory | None = None,
) -> Fig12Result:
    scale = get_scale(scale)
    if factory is None:
        factory = make_factory(spec, scale, seed=seed)
    apps = experiment_apps(scale)

    base = attack_scenario(
        name="fig12", spec=spec, class_workloads=apps, defense="maya_gs",
        scale=scale, seed=seed, pool=20,
    )
    # Record the victim traces once; the attacker re-samples them at each
    # rate, exactly as changing the malicious module's polling interval.
    traces = simulate_runs(base, factory)

    outcomes: dict[float, AttackOutcome] = {}
    for interval in intervals_s:
        # Keep the pooled-feature wall-clock span constant: pool scales
        # with the sampling rate so every attack sees 0.4 s averages.
        pool = max(int(round(base.pool * base.sample_interval_s / interval)), 1)
        scenario = replace(base, sample_interval_s=interval, pool=pool)
        sampled = sample_runs(scenario, traces)
        outcomes[interval] = train_and_evaluate(scenario, sampled)
    return Fig12Result(outcomes=outcomes, chance=1.0 / len(apps))
