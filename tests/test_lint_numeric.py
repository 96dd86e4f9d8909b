"""Reassociation-safety analysis (MAYA040-MAYA043): the known-bad fixture
corpus, the clean-tree gate, certificate structure/determinism, the
committed-certificate drift check, and the CLI plumbing (--stats,
--write-certs / --check-certs, baselines)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.lint import LintEngine, check_certificates, write_certificates
from repro.lint.dataflow import CERT_SCHEMA

PACKAGE_DIR = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parent.parent
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "numeric_bad"
CERTS_DIR = REPO_ROOT / "certs" / "numeric"

CERT_KEYS = {
    "schema",
    "ok",
    "module",
    "path",
    "policy",
    "counts",
    "order_sensitive_sites",
    "batch_safe_functions",
    "twins",
}


def numeric_engine():
    return LintEngine(rules=(), analyses=("numeric",))


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE_DIR.parent) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


class TestFixtureCorpus:
    """Each known-bad fixture trips exactly the numeric rule it encodes."""

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("machine/sensors.py", ["MAYA041"]),
            ("machine/power.py", ["MAYA042", "MAYA042"]),
            ("masks/generators.py", ["MAYA040"]),
            ("exec/batch.py", ["MAYA043"]),
            ("control/controller.py", ["MAYA043"]),
        ],
    )
    def test_fixture_trips_its_rule(self, name, expected):
        report = numeric_engine().run_paths([FIXTURE_DIR / name])
        assert [d.rule_id for d in report.diagnostics] == expected

    def test_unpaired_twin_names_the_missing_serial(self):
        report = numeric_engine().run_paths([FIXTURE_DIR / "exec" / "batch.py"])
        (diag,) = report.diagnostics
        assert "missing_serial_power" in diag.message
        assert "does not resolve" in diag.message

    def test_diverged_twin_reports_the_structural_delta(self):
        report = numeric_engine().run_paths([FIXTURE_DIR / "control" / "controller.py"])
        (diag,) = report.diagnostics
        assert "diverged structurally" in diag.message
        assert "bias_w" in diag.message

    def test_batch_safe_violation_names_the_function(self):
        report = numeric_engine().run_paths([FIXTURE_DIR / "masks" / "generators.py"])
        (diag,) = report.diagnostics
        assert "sinusoid_mask" in diag.message
        assert "batch-safe" in diag.message

    def test_whole_corpus_covers_all_four_rules(self):
        report = numeric_engine().run_paths([FIXTURE_DIR])
        assert {d.rule_id for d in report.diagnostics} == {
            "MAYA040",
            "MAYA041",
            "MAYA042",
            "MAYA043",
        }


class TestSourceTreeGate:
    """The shipped simulation hot paths must certify reassociation-clean."""

    def test_src_repro_has_no_numeric_findings(self):
        report = numeric_engine().run_paths([PACKAGE_DIR])
        assert report.diagnostics == [], "\n".join(
            d.format() for d in report.diagnostics
        )

    def test_out_of_scope_modules_are_ignored(self):
        src = "__all__ = []\n\ndef f(values):\n    return values.sum()\n"
        report = numeric_engine().run_source(src, "repro/analysis/probe.py")
        assert report.diagnostics == []


class TestCertificates:
    def certs(self):
        return numeric_engine().run_paths([PACKAGE_DIR]).numeric_certificates

    def test_every_cert_has_schema_and_keys(self):
        certs = self.certs()
        assert certs, "numeric analysis should emit certificates"
        for cert in certs.values():
            assert cert["schema"] == CERT_SCHEMA
            assert CERT_KEYS <= set(cert)
            assert cert["ok"] is True

    def test_known_holdouts_are_enumerated_with_finite_bounds(self):
        certs = {cert["module"]: cert for cert in self.certs().values()}
        power = certs["repro.machine.power"]
        kinds = {site["kind"] for site in power["order_sensitive_sites"]}
        assert kinds == {"recurrence"}  # the two AR(1) lfilter calls
        masks = certs["repro.masks.generators"]
        assert {s["kind"] for s in masks["order_sensitive_sites"]} == {
            "transcendental"
        }
        controller = certs["repro.control.controller"]
        assert "matmul" in {s["kind"] for s in controller["order_sensitive_sites"]}
        assert any(s["clipped"] for s in controller["order_sensitive_sites"])
        for cert in certs.values():
            for site in cert["order_sensitive_sites"]:
                assert 0.0 < site["abs_error_bound"] < float("inf")
                assert 0.0 < site["ulp_error_bound"] < float("inf")

    def test_batch_safe_and_twin_inventory(self):
        certs = {cert["module"]: cert for cert in self.certs().values()}
        assert certs["repro.machine.power"]["batch_safe_functions"] == [
            "PowerModel.app_power",
            "PowerModel.balloon_power",
            "PowerModel.dvfs_scale",
            "PowerModel.idle_scale",
            "PowerModel.static_power",
        ]
        twins = {
            (t["serial"], t["batched"])
            for cert in certs.values()
            for t in cert["twins"]
        }
        # The decide pair is no twin any more: the fleet controller step is
        # vectorized, and tests/test_control_step_fleet.py pins it instead.
        assert twins == {
            ("PowerModel.window_power", "batch_window_power"),
            ("RaplSensor.measure_window", "BatchedRaplSensor.measure_windows"),
        }
        assert all(t["matched"] for cert in certs.values() for t in cert["twins"])

    def test_analysis_is_deterministic(self):
        assert self.certs() == self.certs()

    def test_write_then_check_round_trips(self, tmp_path):
        certs = self.certs()
        written = write_certificates(certs, tmp_path)
        assert sorted(written) == sorted(p.name for p in tmp_path.glob("*.json"))
        assert check_certificates(certs, tmp_path) == []

    def test_check_detects_drift_and_missing(self, tmp_path):
        certs = self.certs()
        write_certificates(certs, tmp_path)
        stale = tmp_path / "repro.machine.power.json"
        payload = json.loads(stale.read_text())
        payload["counts"]["order_sensitive"] = 99
        stale.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        (tmp_path / "repro.masks.generators.json").unlink()
        problems = "\n".join(check_certificates(certs, tmp_path))
        assert "repro.machine.power.json" in problems
        assert "repro.masks.generators.json" in problems

    def test_committed_certificates_match_regeneration(self):
        """The CI drift gate, run in-process: certs/numeric is current."""
        proc = run_cli(
            "--analyze",
            "numeric",
            "--check-certs",
            "certs/numeric",
            "src/repro",
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert CERTS_DIR.is_dir() and list(CERTS_DIR.glob("*.json"))


class TestCli:
    def test_numeric_fixtures_exit_nonzero_with_rule_ids(self):
        proc = run_cli("--analyze", "numeric", str(FIXTURE_DIR))
        assert proc.returncode == 1
        for rule_id in ("MAYA040", "MAYA041", "MAYA042", "MAYA043"):
            assert rule_id in proc.stdout

    def test_list_rules_includes_numeric_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("MAYA040", "MAYA041", "MAYA042", "MAYA043"):
            assert rule_id in proc.stdout

    def test_github_format_emits_workflow_commands(self):
        proc = run_cli(
            "--analyze",
            "numeric",
            "--format",
            "github",
            str(FIXTURE_DIR / "machine" / "sensors.py"),
        )
        assert proc.returncode == 1
        assert any(
            line.startswith("::error file=") and "title=MAYA041" in line
            for line in proc.stdout.splitlines()
        )

    def test_json_format_embeds_numeric_certificates(self):
        proc = run_cli(
            "--format",
            "json",
            "--analyze",
            "numeric",
            str(PACKAGE_DIR / "machine" / "power.py"),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        certs = payload["numeric_certificates"]
        assert len(certs) == 1
        (cert,) = certs.values()
        assert cert["schema"] == CERT_SCHEMA
        assert cert["module"] == "repro.machine.power"

    def test_write_certs_then_check_certs(self, tmp_path):
        write = run_cli(
            "--analyze", "numeric", "--write-certs", str(tmp_path), str(PACKAGE_DIR)
        )
        assert write.returncode == 0, write.stdout + write.stderr
        assert "certificate" in write.stderr
        check = run_cli(
            "--analyze", "numeric", "--check-certs", str(tmp_path), str(PACKAGE_DIR)
        )
        assert check.returncode == 0, check.stdout + check.stderr
        (tmp_path / "repro.machine.power.json").unlink()
        recheck = run_cli(
            "--analyze", "numeric", "--check-certs", str(tmp_path), str(PACKAGE_DIR)
        )
        assert recheck.returncode == 1
        assert "numeric-certificate" in recheck.stdout

    def test_check_certs_implies_numeric_analysis(self, tmp_path):
        run_cli("--analyze", "numeric", "--write-certs", str(tmp_path), str(PACKAGE_DIR))
        proc = run_cli("--check-certs", str(tmp_path), str(PACKAGE_DIR))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_baseline_round_trip_silences_numeric_findings(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        write = run_cli(
            "--analyze",
            "numeric",
            "--write-baseline",
            str(baseline),
            str(FIXTURE_DIR),
        )
        assert write.returncode == 0, write.stdout + write.stderr
        entries = json.loads(baseline.read_text())["entries"]
        assert any("MAYA04" in json.dumps(entry) for entry in entries)
        rerun = run_cli("--analyze", "numeric", "--baseline", str(baseline), str(FIXTURE_DIR))
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        assert "clean" in rerun.stdout

    def test_baseline_does_not_silence_new_numeric_findings(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        write = run_cli(
            "--analyze",
            "numeric",
            "--write-baseline",
            str(baseline),
            str(FIXTURE_DIR / "machine"),
        )
        assert write.returncode == 0, write.stdout + write.stderr
        proc = run_cli("--analyze", "numeric", "--baseline", str(baseline), str(FIXTURE_DIR))
        assert proc.returncode == 1
        # The baselined machine/ findings stay silent; the rest still fire.
        assert "MAYA041" not in proc.stdout and "MAYA042" not in proc.stdout
        assert "MAYA040" in proc.stdout and "MAYA043" in proc.stdout

    def test_stats_reports_per_rule_counts(self):
        proc = run_cli("--analyze", "numeric", "--stats", str(FIXTURE_DIR))
        assert proc.returncode == 1
        assert "MAYA041" in proc.stdout and "MAYA042" in proc.stdout
        assert "total" in proc.stdout

    def test_stats_counts_suppressions(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text(
            "__all__ = []\n\n"
            "def f(a):\n"
            "    return a == 1.0  # maya: ignore[MAYA003]\n"
        )
        proc = run_cli("--stats", str(probe))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "MAYA003" in proc.stdout
