"""What a run imports, checked in a fresh interpreter.

``import scipy.signal`` costs more than the rest of ``import repro``, and
``import scipy.linalg`` about as much again, and every figure run, CLI and
pool worker would pay for them before simulating anything.  The simulator
therefore runs its first-order filters without SciPy
(:func:`repro.machine.power.first_order_rows`) and controller synthesis
solves its Riccati equations in numpy
(:func:`repro.control.synthesis._solve_dare`); SciPy serves the tests
alone, as the oracle of both.  This test runs each simulation path in a
subprocess and records which SciPy modules are loaded after each step, and
runs a Maya design and session with SciPy made unimportable.

The same set-up cost holds for the package's own modules and the heavier
stdlib: a figure module loads no sibling figure, no attack stack unless it
runs an attack, and no process-pool, archive or subprocess module (DESIGN.md
section 6d, "What a run imports"); and once its defenses are built, a
figure's first call imports no ``repro`` module, so no import lands inside
a timed call.
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


def last_output_line(script: str) -> str:
    """Run ``script`` in a fresh interpreter on ``src/``; return its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def loaded():
    """SciPy modules loaded after each step of :data:`SCRIPT`."""
    return json.loads(last_output_line(SCRIPT))


def test_import_repro_loads_numpy_but_no_scipy(loaded):
    assert loaded["numpy"]
    assert loaded["import repro"] == []
    assert loaded["imports"] == []


STEPS = ["sysid + synthesis", "run_session", "lock-step fleet", "constant-settings fleet",
         "temperature"]


def test_no_step_loads_any_scipy_module(loaded):
    assert {step: loaded[step] for step in STEPS} == {step: [] for step in STEPS}


@pytest.mark.parametrize("step", STEPS)
def test_simulation_never_loads_scipy_signal(loaded, step):
    assert "scipy.signal" not in loaded[step]


#: Builds a Maya design and runs a session with every SciPy import failing.
BLOCKED_SCRIPT = """
import sys

sys.modules["scipy"] = None

import repro
from repro.experiments.common import make_factory
from repro.experiments.config import get_scale
from repro.machine import SYS1
from repro.workloads import get_workload

factory = make_factory(SYS1, get_scale("smoke"))
defense = factory.create("maya_gs")
machine = repro.make_machine(SYS1, get_workload("volrend"), seed=3, run_id=0)
trace = repro.run_session(machine, defense, seed=3, duration_s=0.2)
print(trace.power_w.size)
"""


def test_maya_design_and_session_run_without_scipy():
    assert int(last_output_line(BLOCKED_SCRIPT)) > 0


def test_temperature_step_records_temperature(loaded):
    assert loaded["temperature recorded"]


#: Imports one figure module after numpy; prints the modules that loaded.
FIGURE_IMPORT = """
import json
import sys

import numpy

before = set(sys.modules)
import repro.experiments.{figure}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

#: Stdlib packages that only a process pool, a store archive or a git
#: lookup needs.
UNUSED_STDLIB = ("multiprocessing", "concurrent.futures", "tarfile", "subprocess", "logging")


def under(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


@pytest.mark.parametrize("figure", ["fig14_overheads", "fig11_changepoints"])
def test_figure_import_loads_no_sibling_attack_or_pool_module(figure):
    loaded = json.loads(last_output_line(FIGURE_IMPORT.format(figure=figure)))
    assert f"repro.experiments.{figure}" in loaded
    assert [
        name for name in loaded
        if name.startswith("repro.experiments.fig") and name != f"repro.experiments.{figure}"
    ] == []
    assert [name for name in loaded if under(name, "repro.attacks")] == []
    assert [
        name for name in loaded
        if any(under(name, package) for package in UNUSED_STDLIB)
    ] == []


#: Builds Fig. 14's defense, then prints the ``repro`` modules its first
#: call loads.
FIRST_CALL = """
import json
import sys

from repro.experiments import fig14_overheads
from repro.experiments.common import make_factory
from repro.experiments.config import get_scale
from repro.machine import SYS1

factory = make_factory(SYS1, get_scale("smoke"), seed=7)
factory.create("maya_gs")
before = set(sys.modules)
fig14_overheads.run("smoke", seed=7, factory=factory, defenses=("maya_gs",))
new = set(sys.modules) - before
print(json.dumps(sorted(name for name in new if name.split(".")[0] == "repro")))
"""


def test_first_figure_call_imports_no_repro_module():
    assert json.loads(last_output_line(FIRST_CALL)) == []


#: Builds Fig. 11's defense, runs the figure once, then prints whether
#: ``numpy.ma`` (which ``np.median``'s first call imports) has loaded.
FIG11_CALL = """
import json
import sys

from repro.experiments import fig11_changepoints
from repro.experiments.common import make_factory
from repro.experiments.config import get_scale
from repro.machine import SYS1

factory = make_factory(SYS1, get_scale("smoke"), seed=7)
factory.create("maya_gs")
fig11_changepoints.run("smoke", seed=7, factory=factory, defenses=("maya_gs",), n_runs=1)
print(json.dumps("numpy.ma" in sys.modules))
"""


def test_fig11_call_does_not_import_numpy_ma():
    assert json.loads(last_output_line(FIG11_CALL)) is False
