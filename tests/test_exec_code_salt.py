"""code_salt() sensitivity: every source outside the unsalted packages
moves the digest, the control loop included; the unsalted packages,
file renames and the epoch behave as documented; and a simulated session
loads no unsalted package but telemetry, whose values MAYA032 keeps out
of the simulation."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro
import repro.exec.jobs as jobs_mod
from repro.exec.jobs import (
    CACHE_EPOCH,
    _UNSALTED_PACKAGES,
    _digest_simulation_sources,
)

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def copy_source_tree(tmp_path):
    """A private copy of ``src/repro``'s sources, safe to mutate."""
    root = tmp_path / "repro"
    shutil.copytree(
        PACKAGE_ROOT, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return root


def digest(root, epoch=CACHE_EPOCH):
    return _digest_simulation_sources(root, _UNSALTED_PACKAGES, epoch)


def perturbed(root, relative):
    """The digest with ``relative`` edited, its bytes restored afterwards."""
    target = root / relative
    original = target.read_bytes()
    target.write_bytes(original + b"\n# perturbed\n")
    try:
        return digest(root)
    finally:
        target.write_bytes(original)


class TestDigestSensitivity:
    def test_editing_any_salted_package_changes_the_digest(self, tmp_path):
        root = copy_source_tree(tmp_path)
        base = digest(root)
        salted = sorted(
            entry.name
            for entry in root.iterdir()
            if entry.name not in _UNSALTED_PACKAGES
            and (entry.suffix == ".py" or any(entry.rglob("*.py")))
        )
        assert {"core", "exec", "machine", "__init__.py", "__main__.py"} <= set(salted)
        for name in salted:
            entry = root / name
            target = entry if entry.is_file() else sorted(entry.rglob("*.py"))[0]
            assert perturbed(root, target.relative_to(root)) != base, name
        # Restoring every byte restores the digest.
        assert digest(root) == base

    def test_editing_the_control_loop_changes_the_digest(self, tmp_path):
        root = copy_source_tree(tmp_path)
        assert perturbed(root, "exec/batch.py") != digest(root)

    def test_editing_an_unsalted_package_leaves_the_digest(self, tmp_path):
        root = copy_source_tree(tmp_path)
        base = digest(root)
        for relative in (
            "telemetry/__init__.py",
            "lint/rules.py",
            "experiments/common.py",
        ):
            assert perturbed(root, relative) == base, relative
        # A new module in an unsalted package is not salted either.
        (root / "telemetry" / "probe.py").write_text("PROBE = 1\n")
        assert digest(root) == base

    def test_renaming_a_file_changes_the_digest(self, tmp_path):
        root = copy_source_tree(tmp_path)
        base = digest(root)
        target = sorted((root / "masks").rglob("*.py"))[-1]
        target.rename(target.with_name("renamed_probe.py"))
        assert digest(root) != base

    def test_epoch_bump_changes_the_digest(self, tmp_path):
        root = copy_source_tree(tmp_path)
        assert digest(root) != digest(root, CACHE_EPOCH + 1)

    def test_code_salt_matches_direct_digest(self):
        jobs_mod.code_salt.cache_clear()
        assert jobs_mod.code_salt() == digest(PACKAGE_ROOT)


#: Simulates a Maya fleet and a constant-settings fleet through the
#: lock-step kernel, then prints the repro modules of unsalted packages
#: the process has loaded.
SESSION_IMPORTS_SCRIPT = """
import json
import sys

from repro.exec import SessionJob, execute_jobs_batched
from repro.exec.jobs import _UNSALTED_PACKAGES
from repro.machine import SYS1

for defense in ("maya_gs", "noisy_baseline"):
    execute_jobs_batched([
        SessionJob(spec=SYS1, workload="volrend", defense=defense, seed=3,
                   run_id=0, duration_s=0.2,
                   design_overrides={"sysid_intervals": 400})
    ])
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "repro"
    and len(name.split(".")) > 1
    and name.split(".")[1] in _UNSALTED_PACKAGES
)))
"""


def test_sessions_load_no_unsalted_package_but_telemetry():
    """A trace can only come from salted code: the kernel, the Maya design
    build and the constant-settings path import nothing from the unsalted
    packages except ``repro.telemetry``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE_ROOT.parent)
    proc = subprocess.run(
        [sys.executable, "-c", SESSION_IMPORTS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    loaded = json.loads(proc.stdout)
    assert [name for name in loaded if not name.startswith("repro.telemetry")] == []
