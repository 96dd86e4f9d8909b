"""code_salt() sensitivity: every source outside the unsalted packages
moves the digest, the control loop included; the unsalted packages,
file renames and the epoch behave as documented."""

import shutil
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
