"""Figure 8: detecting the video being encoded (attack 2, Sys2).

FFmpeg transcodes one of four raw test clips on the 40-core server; the
attacker classifies the clip from RAPL traces.  Paper result: Random Inputs
72%, Maya Constant 90%, Maya GS 24% (chance 25%).  Notably the paper found
Maya Constant *worse* than Random Inputs here: the constant target makes the
clips' complexity peaks more prominent.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..attacks import AttackOutcome, run_attack
from ..defenses.designs import DefenseFactory
from ..machine import SYS2, PlatformSpec
from ..workloads import VIDEO_NAMES
from .common import attack_scenario, make_factory
from .config import ExperimentScale, get_scale

__all__ = ["Fig8Result", "DEFENSES", "PAPER_ACCURACY", "run"]

DEFENSES = ("random_inputs", "maya_constant", "maya_gs")
PAPER_ACCURACY = {"random_inputs": 0.72, "maya_constant": 0.90, "maya_gs": 0.24}


@dataclass(frozen=True)
class Fig8Result:
    outcomes: dict[str, AttackOutcome]
    videos: tuple[str, ...]

    @property
    def accuracies(self) -> dict[str, float]:
        return {name: out.average_accuracy for name, out in self.outcomes.items()}

    @property
    def chance(self) -> float:
        return 1.0 / len(self.videos)

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
    spec: PlatformSpec = SYS2,
    defenses: tuple[str, ...] = DEFENSES,
    factory: DefenseFactory | None = None,
) -> Fig8Result:
    scale = get_scale(scale)
    if factory is None:
        factory = make_factory(spec, scale, seed=seed)
    videos = tuple(f"video_{name}" for name in VIDEO_NAMES)
    # The attacker knows the deployed defense (threat model, Section III)
    # and tunes their preprocessing per design: heavy averaging to wash out
    # input randomization, fine-grained sampling to catch the short
    # per-GOP transients that escape the constant mask.
    pools = {"random_inputs": 20, "maya_constant": 5, "maya_gs": 5}
    outcomes = {}
    for defense in defenses:
        scenario = attack_scenario(
            name="fig8", spec=spec, class_workloads=videos, defense=defense,
            scale=scale, seed=seed, pool=pools.get(defense, 5),
            # The paper records 200 runs per clip; with only four classes
            # the attack is variance-limited, so give it twice the scale's
            # run budget.
            runs_per_class=2 * scale.runs_per_class,
        )
        outcomes[defense] = run_attack(scenario, factory)
    return Fig8Result(outcomes=outcomes, videos=videos)
