"""Figure 9: detecting visited web pages from AC outlet power (attack 3).

Sys3's electrical outlet is tapped (Figure 5); the multimeter reports RMS
power every 50 ms (three 60 Hz cycles).  Because browser activity varies
quickly, the attacker trains on the traces' FFTs.  Paper result: Random
Inputs 51%, Maya Constant 40%, Maya GS 10% (chance 14%).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..attacks import AttackOutcome, run_attack
from ..defenses.designs import DefenseFactory
from ..machine import SYS3, PlatformSpec
from ..workloads import PAGE_NAMES
from .common import attack_scenario, make_factory
from .config import ExperimentScale, get_scale

__all__ = ["Fig9Result", "DEFENSES", "PAPER_ACCURACY", "run"]

DEFENSES = ("random_inputs", "maya_constant", "maya_gs")
PAPER_ACCURACY = {"random_inputs": 0.51, "maya_constant": 0.40, "maya_gs": 0.10}


@dataclass(frozen=True)
class Fig9Result:
    outcomes: dict[str, AttackOutcome]
    pages: tuple[str, ...]

    @property
    def accuracies(self) -> dict[str, float]:
        return {name: out.average_accuracy for name, out in self.outcomes.items()}

    @property
    def chance(self) -> float:
        return 1.0 / len(self.pages)

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
    spec: PlatformSpec = SYS3,
    defenses: tuple[str, ...] = DEFENSES,
    factory: DefenseFactory | None = None,
) -> Fig9Result:
    scale = get_scale(scale)
    if factory is None:
        factory = make_factory(spec, scale, seed=seed)
    pages = tuple(f"page_{name}" for name in PAGE_NAMES)
    outcomes = {}
    for defense in defenses:
        scenario = attack_scenario(
            name="fig9", spec=spec, class_workloads=pages, defense=defense,
            scale=scale, seed=seed,
            sensor="outlet",
            duration_s=15.0,           # each visit trace is ~15 s (paper)
            segment_duration_s=12.0,
            segment_stride_s=1.0,
            feature_mode="fft",
        )
        outcomes[defense] = run_attack(scenario, factory)
    return Fig9Result(outcomes=outcomes, pages=pages)
