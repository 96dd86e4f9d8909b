"""Which SciPy modules the package loads, checked in a fresh interpreter.

``import scipy.signal`` costs more than the rest of ``import repro``, and
every figure run, CLI and pool worker pays the package's import before it
simulates anything.  The simulator therefore runs its first-order filters
without SciPy (:func:`repro.machine.power.first_order_rows`), and the one
SciPy import left, the Riccati solver of controller synthesis, happens
inside :func:`repro.control.synthesis.design_controller`.  This test runs
each simulation path in a subprocess and records which SciPy modules are
loaded after each step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Runs the simulation paths one by one and prints, per step, the SciPy
#: modules then loaded (as one JSON object).
SCRIPT = """
import json
import sys


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


steps = {}
import repro
steps["import repro"] = scipy_modules()
steps["numpy"] = "numpy" in sys.modules

from repro.exec import SessionJob, run_sessions
from repro.experiments.common import make_factory
from repro.experiments.config import get_scale
from repro.machine import SYS1
from repro.workloads import get_workload

factory = make_factory(SYS1, get_scale("smoke"))
steps["imports"] = scipy_modules()
factory.create("maya_gs")
steps["sysid + synthesis"] = scipy_modules()

machine = repro.make_machine(SYS1, get_workload("volrend"), seed=3, run_id=0)
repro.run_session(machine, factory.create("maya_gs"), seed=3, duration_s=0.2)
steps["run_session"] = scipy_modules()


def fleet(defense):
    jobs = [
        SessionJob.for_factory(
            factory, workload="volrend", defense=defense, seed=3, run_id=run,
            duration_s=0.2,
        )
        for run in range(2)
    ]
    run_sessions(jobs, workers=1, cache=False, factory=factory)


fleet("maya_gs")
steps["lock-step fleet"] = scipy_modules()
fleet("noisy_baseline")
steps["constant-settings fleet"] = scipy_modules()

machine = repro.make_machine(
    SYS1, get_workload("volrend"), seed=3, run_id=1, record_temperature=True
)
trace = repro.run_session(machine, factory.create("maya_gs"), seed=3, duration_s=0.2)
steps["temperature"] = scipy_modules()
steps["temperature recorded"] = trace.temperature_c.size > 0
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def loaded():
    """SciPy modules loaded after each step of :data:`SCRIPT`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_import_repro_loads_numpy_but_no_scipy(loaded):
    assert loaded["numpy"]
    assert loaded["import repro"] == []
    assert loaded["imports"] == []


def test_synthesis_loads_scipy_linalg(loaded):
    assert "scipy.linalg" in loaded["sysid + synthesis"]


@pytest.mark.parametrize(
    "step",
    [
        "sysid + synthesis",
        "run_session",
        "lock-step fleet",
        "constant-settings fleet",
        "temperature",
    ],
)
def test_simulation_never_loads_scipy_signal(loaded, step):
    assert "scipy.signal" not in loaded[step]


def test_temperature_step_records_temperature(loaded):
    assert loaded["temperature recorded"]
