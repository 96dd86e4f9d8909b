"""Numeric hygiene rules (MAYA041 reduction order, MAYA042 dtype narrowing):
the CLI on their known-bad fixtures and the gate that the shipped
``src/repro`` tree has no numeric findings."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.lint import LintEngine
from repro.lint.rules import DtypeNarrowingRule, ReductionOrderRule

PACKAGE_DIR = Path(repro.__file__).resolve().parent
#: The MAYA041/MAYA042 fixtures carry hot-path module paths.
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "lint_bad" / "machine"
NUMERIC_RULE_IDS = ("MAYA041", "MAYA042")


def numeric_engine():
    return LintEngine(rules=(ReductionOrderRule(), DtypeNarrowingRule()))


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE_DIR.parent) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestSourceTreeGate:
    def test_src_repro_has_no_numeric_findings(self):
        report = numeric_engine().run_paths([PACKAGE_DIR])
        assert report.diagnostics == [], "\n".join(
            d.format() for d in report.diagnostics
        )


class TestCli:
    def test_numeric_fixtures_exit_nonzero_with_rule_ids(self):
        proc = run_cli(str(FIXTURE_DIR))
        assert proc.returncode == 1
        for rule_id in NUMERIC_RULE_IDS:
            assert rule_id in proc.stdout
