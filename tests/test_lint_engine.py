"""Engine/CLI tests: file discovery, the known-bad fixture corpus, and the
gate asserting the shipped ``src/repro`` tree is lint-clean.

The CLI tests call :func:`repro.lint.__main__.main` in-process; one test
starts ``python -m repro.lint`` to cover the module entry point and its
exit code."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.lint import Diagnostic, LintEngine, lint_paths
from repro.lint.__main__ import main

PACKAGE_DIR = Path(repro.__file__).resolve().parent
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "lint_bad"

#: Every rule ``--list-rules`` names: the AST rules and the unit checker.
KEPT_RULE_IDS = (
    "MAYA001", "MAYA002", "MAYA003",
    "MAYA010", "MAYA011", "MAYA013",
    "MAYA031", "MAYA032", "MAYA033",
    "MAYA050",
)


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys):
    """``python -m repro.lint ARGS`` run in-process through ``main``."""

    def run(*args):
        capsys.readouterr()
        returncode = main(list(args))
        captured = capsys.readouterr()
        return CliResult(returncode, captured.out, captured.err)

    return run


class TestDiscovery:
    def test_directory_walk_finds_all_fixtures(self):
        diags = lint_paths([FIXTURE_DIR])
        paths = {Path(d.path).name for d in diags}
        assert "bad_random.py" in paths
        assert "suppressed_clean.py" not in paths  # fully suppressed
        assert "README.md" not in paths

    def test_single_file_and_duplicate_paths(self):
        target = FIXTURE_DIR / "bad_wallclock.py"
        once = lint_paths([target])
        twice = lint_paths([target, target])
        assert [d.rule_id for d in once] == ["MAYA002"] * 3
        assert once == twice  # deduplicated

    def test_diagnostics_are_ordered_and_formatted(self):
        diags = lint_paths([FIXTURE_DIR])
        assert diags == sorted(diags)
        sample = diags[0]
        assert isinstance(sample, Diagnostic)
        text = sample.format()
        assert sample.rule_id in text and f":{sample.line}:" in text


class TestFixtureCorpus:
    """Each bad_* fixture trips exactly the rule it is named for."""

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("bad_random.py", {"MAYA001"}),
            ("bad_wallclock.py", {"MAYA002"}),
            ("bad_float_eq.py", {"MAYA003"}),
            ("machine/host_state.py", {"MAYA050"}),
        ],
    )
    def test_fixture_trips_its_rule(self, name, expected):
        diags = LintEngine().lint_file(FIXTURE_DIR / name)
        assert {d.rule_id for d in diags} == expected

    def test_host_state_fixture_reports_every_site(self):
        diags = LintEngine().lint_file(FIXTURE_DIR / "machine" / "host_state.py")
        # import os, from pathlib import Path, open(...)
        assert [d.rule_id for d in diags] == ["MAYA050"] * 3

    def test_bad_random_reports_every_call_site(self):
        diags = LintEngine().lint_file(FIXTURE_DIR / "bad_random.py")
        # import random, np.random.seed, random.random, np.random.default_rng
        assert len(diags) == 4

    def test_suppressed_fixture_is_clean(self):
        assert LintEngine().lint_file(FIXTURE_DIR / "suppressed_clean.py") == []


class TestSourceTreeGate:
    """The shipped package must satisfy its own linter."""

    def test_src_repro_is_lint_clean(self, package_lint):
        diags = package_lint.diagnostics
        assert diags == [], "\n".join(d.format() for d in diags)


class TestSuppressionExtent:
    """A ``# maya: ignore`` on the *last* line of a multi-line statement
    must cover the whole statement (regression: it used to apply only to
    the physical line carrying the comment)."""

    MULTILINE = (
        "__all__ = ['f']\n"
        "\n"
        "\n"
        "def f(a):\n"
        "    flag = (\n"
        "        a == 1.0\n"
        "    ){comment}\n"
        "    return flag\n"
    )

    def test_last_line_suppression_covers_statement(self):
        src = self.MULTILINE.format(comment="  # maya: ignore[MAYA003]")
        assert LintEngine().run_source(src, "probe.py").diagnostics == []

    def test_unsuppressed_control_still_reports(self):
        src = self.MULTILINE.format(comment="")
        diags = LintEngine().run_source(src, "probe.py").diagnostics
        assert [d.rule_id for d in diags] == ["MAYA003"]

    def test_extent_does_not_leak_past_the_statement(self):
        src = self.MULTILINE.format(comment="  # maya: ignore[MAYA003]")
        src += "\n\ndef g(b):\n    return b == 2.0\n"
        diags = LintEngine().run_source(src, "probe.py").diagnostics
        assert [(d.rule_id, d.line) for d in diags] == [("MAYA003", 12)]


class TestSuppressionWhitespace:
    """``# maya: ignore [MAYA003]`` (space before the bracket) must parse as
    a *targeted* suppression (regression: the rule list used to be dropped,
    turning the comment into a blanket suppression)."""

    SRC = (
        "__all__ = ['f']\n"
        "\n"
        "\n"
        "def f(a):\n"
        "    import random{comment}\n"
        "    return a == 1.0{comment}\n"
    )

    def test_space_before_bracket_is_targeted(self):
        src = self.SRC.format(comment="  # maya: ignore [MAYA003]")
        diags = LintEngine().run_source(src, "probe.py").diagnostics
        # MAYA003 is silenced on its line; MAYA001 must still fire.
        assert [d.rule_id for d in diags] == ["MAYA001"]

    def test_spaces_inside_brackets_are_targeted(self):
        src = self.SRC.format(comment="  # maya: ignore[ MAYA001 , MAYA003 ]")
        assert LintEngine().run_source(src, "probe.py").diagnostics == []

    def test_bare_ignore_still_blankets(self):
        src = self.SRC.format(comment="  # maya: ignore")
        assert LintEngine().run_source(src, "probe.py").diagnostics == []

    def test_suppressed_findings_are_recorded(self):
        src = self.SRC.format(comment="  # maya: ignore [MAYA003]")
        report = LintEngine().run_source(src, "probe.py")
        assert "MAYA003" in {d.rule_id for d in report.suppressed}


class TestCli:
    def test_exit_zero_and_clean_message_on_src(self, package_lint):
        proc = package_lint
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_exit_nonzero_with_rule_ids_on_fixtures(self, run_cli):
        proc = run_cli(str(FIXTURE_DIR))
        assert proc.returncode == 1
        for rule_id in ("MAYA001", "MAYA002", "MAYA003", "MAYA050"):
            assert rule_id in proc.stdout

    def test_json_format_is_parseable(self, run_cli):
        proc = run_cli("--format", "json", str(FIXTURE_DIR))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["total"] == len(payload["findings"])
        ids = {finding["rule_id"] for finding in payload["findings"]}
        assert {"MAYA001", "MAYA002", "MAYA003", "MAYA050"} <= ids
        sample = payload["findings"][0]
        assert {"path", "line", "col", "rule_id", "severity", "message"} <= set(sample)

    def test_missing_path_is_usage_error(self, run_cli):
        proc = run_cli("no/such/path.py")
        assert proc.returncode == 2
        assert "no such path" in proc.stderr

    def test_list_rules(self, run_cli):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        listed = tuple(line.split()[0] for line in proc.stdout.splitlines())
        assert listed == KEPT_RULE_IDS

    def test_default_target_is_package_and_clean(self, package_lint):
        proc = package_lint
        assert proc.paths == [PACKAGE_DIR]
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_certify_unknown_platform_is_usage_error(self, run_cli):
        proc = run_cli("--certify", "sys9")
        assert proc.returncode == 2
        assert "unknown platform" in proc.stderr

    def test_certify_sys1_prints_clean_certificate(self, run_cli):
        proc = run_cli("--certify", "sys1", "--seed", "1234")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload["n_states"] == 11
        assert payload["integrator_poles"] == 1
        assert payload["storage_bytes"] < payload["storage_budget_bytes"]

    def test_syntax_error_exits_two(self, run_cli, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        proc = run_cli(str(bad))
        assert proc.returncode == 2
        assert "MAYA000" in proc.stdout

    def test_list_rules_includes_dataflow_rules(self, run_cli):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("MAYA010", "MAYA011", "MAYA013"):
            assert rule_id in proc.stdout

    def test_github_format_emits_workflow_commands(self, run_cli):
        proc = run_cli("--format", "github", str(FIXTURE_DIR / "bad_float_eq.py"))
        assert proc.returncode == 1
        lines = [ln for ln in proc.stdout.splitlines() if ln]
        assert lines, proc.stdout
        for line in lines:
            assert line.startswith("::error file=")
        assert any("title=MAYA003" in line for line in lines)
        # Workflow commands use 1-based columns.
        assert ",col=" in lines[0]

    def test_stats_reports_per_rule_counts(self, run_cli):
        proc = run_cli("--stats", str(FIXTURE_DIR))
        assert proc.returncode == 1
        assert "MAYA001" in proc.stdout and "MAYA050" in proc.stdout
        assert "total" in proc.stdout

    def test_stats_counts_suppressions(self, run_cli, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text(
            "__all__ = []\n\n"
            "def f(a):\n"
            "    return a == 1.0  # maya: ignore[MAYA003]\n"
        )
        proc = run_cli("--stats", str(probe))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "MAYA003" in proc.stdout

    def test_units_run_in_every_call(self, run_cli):
        proc = run_cli(str(FIXTURE_DIR.parent / "dataflow_bad" / "units_bad_arithmetic.py"))
        assert proc.returncode == 1
        assert "MAYA010" in proc.stdout

    def test_removed_options_are_usage_errors(self, run_cli):
        for option in ("--analyze", "--write-certs", "--check-certs",
                       "--baseline", "--write-baseline"):
            with pytest.raises(SystemExit) as exc:
                run_cli(option, "units")
            assert exc.value.code == 2


class TestEntryPoint:
    """``python -m repro.lint`` in a fresh interpreter: the module entry
    point runs ``main`` and turns its result into the exit code."""

    def test_module_entry_point_exit_codes(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(PACKAGE_DIR.parent) + os.pathsep + env.get("PYTHONPATH", "")
        for target, expected in ((FIXTURE_DIR / "bad_float_eq.py", 1),
                                 (FIXTURE_DIR / "suppressed_clean.py", 0)):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.lint", str(target)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == expected, proc.stdout + proc.stderr
        assert "MAYA003" not in proc.stdout and "clean" in proc.stdout
