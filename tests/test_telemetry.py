"""Unit tests for repro.telemetry: registry, recorders, files, CLI."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import (
    ERR_HIST_EDGES_W,
    Histogram,
    MetricsRegistry,
    NullRecorder,
    TelemetryRecorder,
)
from repro.telemetry.__main__ import main as telemetry_cli


@pytest.fixture()
def recorder(tmp_path):
    """An injected recorder, restored to the env-derived default on exit."""
    rec = TelemetryRecorder(root=tmp_path / "telemetry")
    telemetry.set_recorder(rec)
    yield rec
    telemetry.set_recorder(None)


@pytest.fixture(autouse=True)
def _default_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    telemetry.set_recorder(None)
    yield
    telemetry.set_recorder(None)


class TestHistogram:
    def test_bucketing_and_overflow(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        rendered = hist.render()
        # <=1: {0.5, 1.0}; <=2: {1.5}; <=4: {3.0}; overflow: {100.0}
        assert rendered["counts"] == [2, 1, 1, 1]
        assert rendered["count"] == 5
        assert rendered["edges"] == [1.0, 2.0, 4.0]

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(())


class TestMetricsRegistry:
    def test_counters_gauges_histograms_render_sorted(self):
        registry = MetricsRegistry()
        registry.count("b.count", 2)
        registry.count("a.count")
        registry.gauge("z.gauge", 1.5)
        registry.observe("h", 0.3, edges=(1.0,))
        rendered = registry.render()
        assert list(rendered["counters"]) == ["a.count", "b.count"]
        assert rendered["counters"]["b.count"] == 2
        assert rendered["gauges"]["z.gauge"] == 1.5
        assert rendered["histograms"]["h"]["counts"] == [1, 0]
        assert registry.counter_value("a.count") == 1
        assert registry.counter_value("missing") == 0


class TestAmbientRecorder:
    def test_default_is_null_recorder(self):
        assert isinstance(telemetry.get_recorder(), NullRecorder)
        assert telemetry.enabled() is False

    def test_env_var_enables_recording(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "t"))
        telemetry.set_recorder(None)
        rec = telemetry.get_recorder()
        assert rec.enabled and rec.root == tmp_path / "t"

    def test_disabled_emissions_are_noops(self, tmp_path, monkeypatch):
        from repro.core.runtime import make_machine, run_session
        from repro.defenses import Baseline
        from repro.machine import SYS1
        from repro.workloads import get_workload

        monkeypatch.chdir(tmp_path)
        telemetry.count("x")
        telemetry.gauge("y", 1.0)
        telemetry.observe("z", 1.0, edges=(1.0,))
        telemetry.ops("nothing")
        telemetry.write_metrics()
        # A session opens no channel and writes no file.
        machine = make_machine(SYS1, get_workload("volrend"), seed=0, run_id=0)
        run_session(machine, Baseline(), duration_s=0.1)
        assert list(tmp_path.iterdir()) == []


class TestSessionChannel:
    def _identity(self):
        return dict(
            platform="SYS1", workload="volrend", defense="maya_gs", seed=3,
            run_id=0, interval_s=0.02, duration_s=1.0, tick_s=0.001,
            max_duration_s=600.0, tail_s=2.0, record_temperature=False,
        )

    def test_session_file_layout(self, recorder):
        class FakeSettings:
            freq_ghz, idle_frac, balloon_level = 2.0, 0.1, 0.3

        class FakeDefense:
            def diagnostics(self):
                return {"sat_hi": 1, "sat_lo": 0, "aw": 1}

        channel = recorder.session(engine="test", **self._identity())
        channel.interval(0, 30.0, 28.0, FakeSettings(), FakeDefense())
        channel.interval(1, float("nan"), 29.0, FakeSettings(), FakeDefense())
        path = channel.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["type"] for line in lines] == ["manifest", "event", "event", "end"]
        manifest, first, second, end = lines
        assert manifest["schema"] == telemetry.MANIFEST_SCHEMA
        assert manifest["identity"] == channel.digest
        assert manifest["engine"] == "test"
        assert first["t"] == 0 and first["err_w"] == 2.0
        # NaN targets (no mask yet) omit target/err fields entirely.
        assert "target_w" not in second and "err_w" not in second
        assert first["sat_hi"] == 1 and first["aw"] == 1
        assert end["intervals"] == 2
        assert end["saturation_steps"] == 2 and end["antiwindup_steps"] == 2
        assert end["err_mean_w"] == 2.0 and end["err_max_w"] == 2.0

    def test_err_histogram_observed(self, recorder):
        class FakeSettings:
            freq_ghz, idle_frac, balloon_level = 2.0, 0.0, 0.0

        class FakeDefense:
            def diagnostics(self):
                return None

        channel = recorder.session(**self._identity())
        channel.interval(0, 30.0, 27.0, FakeSettings(), FakeDefense())
        channel.close()
        rendered = recorder.metrics.render()["histograms"]["session.abs_err_w"]
        assert rendered["edges"] == list(ERR_HIST_EDGES_W)
        assert sum(rendered["counts"]) == 1

    def test_session_digest_excludes_backend_but_not_seed(self):
        base = self._identity()
        assert telemetry.session_digest(**base) == telemetry.session_digest(**base)
        perturbed = dict(base, seed=4)
        assert telemetry.session_digest(**base) != telemetry.session_digest(**perturbed)


class TestOpsAndMetricsFiles:
    def test_ops_stream_is_sequenced(self, recorder):
        recorder.ops("run.begin", jobs=3)
        recorder.ops("run.end")
        lines = [
            json.loads(line)
            for line in (recorder.root / "ops.jsonl").read_text().splitlines()
        ]
        assert [line["seq"] for line in lines] == [0, 1]
        assert lines[0]["ev"] == "run.begin" and lines[0]["jobs"] == 3

    def test_write_metrics_snapshot(self, recorder):
        telemetry.count("exec.cache.hits", 2)
        path = recorder.write_metrics()
        payload = json.loads(path.read_text())
        assert payload["schema"] == telemetry.METRICS_SCHEMA
        assert payload["counters"]["exec.cache.hits"] == 2


class TestManifestBinding:
    def test_manifest_binds_job_key_and_code_salt(self, recorder, tmp_path):
        from repro.exec import SessionJob
        from repro.exec.jobs import code_salt
        from repro.machine import SYS1

        job = SessionJob(
            spec=SYS1, workload="volrend", defense="baseline",
            seed=5, run_id=0, duration_s=0.1,
        )
        job.execute()
        path = recorder.session_path(telemetry.job_identity(job))
        manifest = json.loads(path.read_text().splitlines()[0])
        assert manifest["job_key"] == job.key()
        assert manifest["code_salt"] == code_salt()
        assert manifest["platform"] == SYS1.name
        assert manifest["seed"] == 5


class TestControllerDiagnostics:
    def test_maya_defense_reports_controller_state(self, sys1_factory):
        from repro.core.runtime import make_machine, run_session
        from repro.workloads import get_workload

        defense = sys1_factory.create("maya_gs")
        assert defense.diagnostics() is None  # before prepare
        machine = make_machine(
            sys1_factory.spec, get_workload("volrend"), seed=2, run_id=0
        )
        run_session(machine, defense, seed=2, run_id=0, duration_s=1.0)
        diag = defense.diagnostics()
        assert set(diag) == {
            "sat_hi", "sat_lo", "aw", "saturation_steps", "antiwindup_steps",
        }
        assert all(isinstance(value, int) for value in diag.values())

    def test_open_loop_defenses_report_none(self, sys1_factory):
        assert sys1_factory.create("baseline").diagnostics() is None


class TestCli:
    def _write_session(self, recorder, seed=3, measured_w=28.0):
        class FakeSettings:
            freq_ghz, idle_frac, balloon_level = 2.0, 0.0, 0.0

        class FakeDefense:
            def diagnostics(self):
                return None

        channel = recorder.session(
            platform="SYS1", workload="volrend", defense="maya_gs", seed=seed,
            run_id=0, interval_s=0.02, duration_s=1.0, tick_s=0.001,
            max_duration_s=600.0, tail_s=2.0, record_temperature=False,
        )
        channel.interval(0, 30.0, measured_w, FakeSettings(), FakeDefense())
        return channel.close()

    def test_summarize_session_and_metrics(self, recorder, capsys):
        path = self._write_session(recorder)
        metrics = recorder.write_metrics()
        assert telemetry_cli(["summarize", str(path), str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "workload=volrend" in out
        assert "intervals" in out
        assert "session.abs_err_w" in out

    def test_summarize_missing_file_is_error(self, capsys):
        assert telemetry_cli(["summarize", "no/such/file.jsonl"]) == 2

    def test_diff_identical_and_divergent(self, recorder, capsys):
        a = self._write_session(recorder, seed=3)
        b = self._write_session(recorder, seed=4, measured_w=25.0)
        same = recorder.root / "copy.jsonl"
        same.write_bytes(a.read_bytes())
        assert telemetry_cli(["diff", str(a), str(same)]) == 0
        assert "identical" in capsys.readouterr().out
        assert telemetry_cli(["diff", str(a), str(b)]) == 1
        assert "divergence" in capsys.readouterr().out

    def test_overhead_budget_gate(self, tmp_path, capsys):
        off = tmp_path / "off.json"
        on = tmp_path / "on.json"
        off.write_text(json.dumps({"timings": {"collect_serial_s": 10.0}}))
        on.write_text(json.dumps({"timings": {"collect_serial_s": 10.4}}))
        assert telemetry_cli(
            ["overhead", str(off), str(on), "--budget", "0.10"]
        ) == 0
        capsys.readouterr()
        on.write_text(json.dumps({"timings": {"collect_serial_s": 12.5}}))
        assert telemetry_cli(
            ["overhead", str(off), str(on), "--budget", "0.10", "--slack-s", "0"]
        ) == 1
        assert "EXCEEDS" in capsys.readouterr().out


class TestFixedPointClipTelemetry:
    def test_warn_policy_counts_and_reports(self, recorder):
        from repro.control.fixedpoint import FixedPointController, FixedPointFormat
        from repro.control.statespace import StateSpace

        matrices = StateSpace(
            a=np.array([[200.0]]), b=np.array([[1.0]]),
            c=np.array([[1.0]]), d=np.array([[0.0]]),
        )
        with pytest.warns(RuntimeWarning, match="Q7.24"):
            controller = FixedPointController(
                matrices, FixedPointFormat(7, 24), on_clip="warn"
            )
        assert controller.clipped_entries == 1
        assert controller.clipped_by_matrix == {"A": 1, "B": 0, "C": 0, "D": 0}
        counters = recorder.metrics.render()["counters"]
        assert counters["control.fixedpoint.clip_events"] == 1
        assert counters["control.fixedpoint.clipped_entries"] == 1

    def test_clip_counts_match_certifier(self):
        from repro.control.fixedpoint import FixedPointController, FixedPointFormat
        from repro.control.statespace import StateSpace

        fmt = FixedPointFormat(3, 12)
        matrices = StateSpace(
            a=np.array([[50.0, 0.5], [0.25, -20.0]]),
            b=np.array([[1.0], [9.0]]),
            c=np.array([[1.0, 0.0]]),
            d=np.array([[0.0]]),
        )
        controller = FixedPointController(matrices, fmt, on_clip="ignore")
        expected = sum(
            int(np.count_nonzero(fmt.saturation_mask(matrix)))
            for matrix in (matrices.a, matrices.b, matrices.c, matrices.d)
        )
        assert controller.clipped_entries == expected == 3
