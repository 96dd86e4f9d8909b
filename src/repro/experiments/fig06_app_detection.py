"""Figure 6: detecting the running application (attack 1, Sys1).

The attacker records RAPL traces of the 11 PARSEC/SPLASH-2x applications
under the deployed defense, trains an MLP, and classifies held-out runs.
Paper result: Random Inputs 94%, Maya Constant 62%, Maya GS 14% average
accuracy (chance 9%).

Attacker adaptation note: the paper's attacker averages 5 consecutive
samples of 300-second traces; at this reproduction's shorter traces the
equivalent noise averaging needs a larger pooling factor, so the attack
uses a 20-sample (0.4 s) average — the strongest uniform choice against
every design here (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..attacks import AttackOutcome, run_attack
from ..defenses.designs import DefenseFactory
from ..machine import SYS1, PlatformSpec
from .common import attack_scenario, experiment_apps, make_factory
from .config import ExperimentScale, get_scale

__all__ = ["Fig6Result", "DEFENSES", "PAPER_ACCURACY", "run"]

DEFENSES = ("random_inputs", "maya_constant", "maya_gs")

#: Paper's Figure 6 average accuracies.
PAPER_ACCURACY = {"random_inputs": 0.94, "maya_constant": 0.62, "maya_gs": 0.14}


@dataclass(frozen=True)
class Fig6Result:
    outcomes: dict[str, AttackOutcome]
    apps: tuple[str, ...]

    @property
    def accuracies(self) -> dict[str, float]:
        return {name: out.average_accuracy for name, out in self.outcomes.items()}

    @property
    def chance(self) -> float:
        return 1.0 / len(self.apps)

    def table(self) -> str:
        lines = [f"{'design':<16}{'measured':>10}{'paper':>8}{'chance':>8}"]
        for name, out in self.outcomes.items():
            paper = PAPER_ACCURACY.get(name)
            lines.append(
                f"{name:<16}{out.average_accuracy:>9.0%}"
                f"{(f'{paper:.0%}' if paper else '-'):>8}{self.chance:>7.0%}"
            )
        return "\n".join(lines)


def run(
    scale: "str | ExperimentScale" = "default",
    seed: int = 0,
    spec: PlatformSpec = SYS1,
    defenses: tuple[str, ...] = DEFENSES,
    factory: DefenseFactory | None = None,
) -> Fig6Result:
    scale = get_scale(scale)
    if factory is None:
        factory = make_factory(spec, scale, seed=seed)
    apps = experiment_apps(scale)
    outcomes = {}
    for defense in defenses:
        scenario = attack_scenario(
            name="fig6", spec=spec, class_workloads=apps, defense=defense,
            scale=scale, seed=seed, pool=20,
        )
        outcomes[defense] = run_attack(scenario, factory)
    return Fig6Result(outcomes=outcomes, apps=apps)
