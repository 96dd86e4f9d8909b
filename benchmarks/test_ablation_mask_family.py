"""Ablation: mask family (the Table II design choice, attacked end-to-end).

Runs the application-detection attack against Maya deploying each mask
family, confirming the paper's design argument: only the gaussian-sinusoid
obfuscates; simpler masks leave exploitable structure.
"""

import pytest
from conftest import BENCH_SEED, report

from repro.attacks import run_attack
from repro.attacks.mlp import MLPConfig
from repro.defenses.designs import maya_design_name
from repro.experiments.common import attack_scenario, experiment_apps
from repro.machine import SYS1


@pytest.mark.parametrize("family", ["constant", "uniform", "gaussian", "sinusoid",
                                    "gaussian_sinusoid"])
def test_ablation_mask_family(benchmark, scale, sys1_factory, family):
    apps = experiment_apps(scale)[:4]
    scenario = attack_scenario(
        name=f"ablation-{family}", spec=SYS1, class_workloads=apps,
        defense=maya_design_name(family), scale=scale, seed=BENCH_SEED, pool=20,
        runs_per_class=max(scale.runs_per_class // 2, 8),
        mlp=MLPConfig(hidden_sizes=(96, 48), max_epochs=40),
    )
    outcome = benchmark.pedantic(
        lambda: run_attack(scenario, sys1_factory), rounds=1, iterations=1
    )
    chance = outcome.chance_accuracy
    report(
        f"Ablation mask={family}",
        f"attack accuracy {outcome.average_accuracy:.0%} (chance {chance:.0%})",
    )
    if family == "gaussian_sinusoid":
        assert outcome.average_accuracy < chance + 0.2
    if family == "constant":
        # The constant mask leaks (Figure 6b).
        assert outcome.average_accuracy > chance + 0.12
