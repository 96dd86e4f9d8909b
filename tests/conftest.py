"""Shared fixtures.

The expensive artifact in this codebase is a Maya design (system
identification + controller synthesis), so one design per platform is built
once per test session and shared; tests that need per-run state instantiate
fresh runtime objects from it.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import MayaConfig
from repro.core.maya import MayaDesign, build_maya_design
from repro.defenses.designs import DefenseFactory
from repro.lint import LintEngine
from repro.lint.__main__ import main as lint_main
from repro.machine import SYS1, ActuatorBank, PowerModel, spawn


TEST_SEED = 1234


@pytest.fixture(scope="session")
def sys1_design() -> MayaDesign:
    """A gaussian-sinusoid Maya design for Sys1 (shared, read-only)."""
    config = MayaConfig(sysid_intervals=400)
    return build_maya_design(SYS1, config, seed=TEST_SEED)


@pytest.fixture(scope="session")
def sys1_constant_design() -> MayaDesign:
    config = MayaConfig(mask_family="constant", sysid_intervals=400)
    return build_maya_design(SYS1, config, seed=TEST_SEED)


@pytest.fixture(scope="session")
def sys1_factory(sys1_design, sys1_constant_design) -> DefenseFactory:
    """A defense factory pre-seeded with the shared designs."""
    factory = DefenseFactory(
        SYS1, seed=TEST_SEED, design_overrides={"sysid_intervals": 400}
    )
    factory._designs["gaussian_sinusoid[]"] = sys1_design
    factory._designs["constant[]"] = sys1_constant_design
    return factory


@pytest.fixture()
def rng() -> np.random.Generator:
    return spawn(TEST_SEED, "test-rng")


@pytest.fixture()
def bank() -> ActuatorBank:
    return ActuatorBank(SYS1)


@pytest.fixture()
def power_model(rng) -> PowerModel:
    return PowerModel(SYS1, rng)


@dataclass
class PackageLint:
    """What one ``python -m repro.lint`` run printed and reported."""

    returncode: int
    stdout: str
    stderr: str
    #: The paths the run linted, resolved.
    paths: list
    diagnostics: list


@pytest.fixture(scope="session")
def package_lint() -> PackageLint:
    """``python -m repro.lint`` on its default target (the ``repro``
    package), run once in-process through ``main`` for every tree gate."""
    runs = []
    run_paths = LintEngine.run_paths

    def recording(engine, paths):
        report = run_paths(engine, paths)
        runs.append((paths, report))
        return report

    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(stdout), redirect_stderr(stderr):
        patch.setattr(LintEngine, "run_paths", recording)
        returncode = lint_main([])
    ((paths, report),) = runs
    return PackageLint(
        returncode, stdout.getvalue(), stderr.getvalue(),
        [Path(path).resolve() for path in paths], report.diagnostics,
    )
