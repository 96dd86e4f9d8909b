"""Tests of the benchmark itself: ``python -m pytest perf -q``."""

from __future__ import annotations

import json
import sys
import types

import pytest

from perf import bench, reference, spans
from perf.workloads import WORKLOADS


def _attempt(*digests, ok=True, **extra):
    """A child's result: one call per digest (``"d"`` when none is given)."""
    if not ok:
        return {"ok": False, **extra}
    calls = [{"wall_s": 1.0, "digest": digest, "valid": True} for digest in digests or ["d"]]
    return {"ok": True, "calls": calls, "setup_s": 0.5, "peak_rss_mb": 100.0,
            "ref_s": 0.3, "ref_slices": 5, **extra}


def test_self_time_subtracts_nested_and_sibling_children():
    records = [
        (0, "root", None, 0.0, 10.0),
        (1, "a", 0, 1.0, 3.0),
        (2, "b", 0, 4.0, 8.0),
        (3, "c", 2, 5.0, 6.0),
        (4, "a", 0, 8.0, 9.0),
    ]
    rows = spans.self_times(records)
    assert rows["root"]["self_s"] == pytest.approx(10.0 - 2.0 - 4.0 - 1.0)
    assert rows["b"]["self_s"] == pytest.approx(3.0)
    assert rows["c"]["self_s"] == pytest.approx(1.0)
    assert rows["a"] == {"self_s": pytest.approx(3.0), "total_s": pytest.approx(3.0), "calls": 2}


def test_self_time_counts_overlapping_children_once():
    records = [(0, "root", None, 0.0, 10.0), (1, "x", 0, 1.0, 4.0), (2, "y", 0, 3.0, 6.0)]
    assert spans.self_times(records)["root"]["self_s"] == pytest.approx(5.0)


def test_summarize_median_and_quartiles():
    summary = bench.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert summary == {"median": 3.0, "p25": 1.5, "p75": 4.5, "n": 5}
    assert bench.summarize([2.5]) == {"median": 2.5, "p25": 2.5, "p75": 2.5, "n": 1}


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines a function and a class; ``fakepkg.b`` imports both."""
    a = types.ModuleType("fakepkg.a")

    def work(x):
        return x + 1

    class Thing:
        def method(self):
            return a.work(1)  # a module-global lookup, as in real code

    work.__module__ = Thing.__module__ = "fakepkg.a"
    a.work, a.Thing = work, Thing
    b = types.ModuleType("fakepkg.b")
    b.work, b.Thing = work, Thing
    modules = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(modules)
    yield a, b
    for name in modules:
        del sys.modules[name]


def test_install_wraps_import_sites_and_undo_restores(fake_package):
    a, b = fake_package
    original = a.work
    tracer = spans.Tracer()
    undo, missing = spans.install(tracer, [
        spans.Target("t.work", "fakepkg.a", "work"),
        spans.Target("t.method", "fakepkg.a", "Thing.method"),
    ], package="fakepkg")
    assert missing == []
    assert b.work(1) == 2 and b.Thing().method() == 2
    names = [(span_id, name, parent) for span_id, name, parent, _, _ in tracer.records()]
    assert names == [(0, "t.work", None), (1, "t.method", None), (2, "t.work", 1)]
    undo()
    assert a.work is original and b.work is original


def test_missing_targets_are_not_measured(fake_package):
    tracer = spans.Tracer()
    _, missing = spans.install(tracer, [
        spans.Target("gone.module", "fakepkg.nowhere", "work"),
        spans.Target("gone.attr", "fakepkg.a", "absent"),
        spans.Target("gone.method", "fakepkg.a", "Thing.absent"),
    ], package="fakepkg")
    assert missing == ["gone.module", "gone.attr", "gone.method"]

    tracer.close(tracer.open(spans.FIGURE_SPAN))
    values = spans.layer_metrics(tracer, ["analysis.pelt"], None, 0.0)
    assert values["analysis.pelt.self_s"] == spans.NOT_MEASURED
    assert values["exec.kernel.decide.self_s"] == spans.NOT_MEASURED
    assert values["core.run_session.self_s"] == 0.0
    assert {name for name, *_ in spans.LAYER_METRICS} - set(values) == {"trace.overhead_pct"}
    line = bench.result_line({"w": {"layers": {**values, "trace.overhead_pct": 1.0},
                                    "failed": 0, "attempted": 1}}, trace=True)
    assert line["metrics"]["analysis.pelt.self_s"] == {"value": 0.0, "unit": "s"}


def test_golden_mismatch_counts_as_failure():
    attempts = [_attempt("good", "good"), _attempt("good", "bad"), _attempt(ok=False, error="boom")]
    assert bench.check(attempts, {"result": "good"}) == [(2, 0), (2, 1), (1, 1)]
    traced = _attempt("good", sessions=["s1", "s2"])
    assert bench.check([traced], {"result": "good", "sessions": ["s1", "s3"]}) == [(1, 1)]

    record = {"prefill": None, "timed": attempts[:2], "traced": None}
    report = bench.report_workload(record, {"result": "good"})
    assert (report["attempted"], report["failed"], report["failed_frac"]) == (4, 1, 0.25)
    assert bench.result_line({"w": report}, trace=False)["correct"] is False


def test_seed_without_golden_requires_agreement():
    attempts = [_attempt(ok=False, error="x"), _attempt("x", "x"), _attempt("x", "z")]
    assert bench.check(attempts, {}) == [(1, 1), (2, 0), (2, 1)]
    # fig06_warm's calls are held to the digest of the cold store fill.
    record = {"prefill": _attempt("cold"), "timed": [_attempt("cold")], "traced": None}
    assert bench.report_workload(record, {})["failed"] == 0


def test_times_scale_to_reference_speed():
    slow = _attempt("d", "d", ref_s=2 * 4 * reference.SLICE_S, ref_slices=4)
    slow["calls"][1]["wall_s"] = 3.0
    quick = _attempt("d", ref_s=4 * reference.SLICE_S, ref_slices=4, setup_s=0.4)
    tracer = spans.Tracer()
    tracer.close(tracer.open(spans.FIGURE_SPAN))
    traced = _attempt("d", ref_s=reference.SLICE_S, ref_slices=1, sessions=[],
                      layers=spans.layer_metrics(tracer, [], [], 0.0))
    traced["calls"][0]["wall_s"] = 10 / 9 * 1.1
    report = bench.report_workload({"prefill": None, "timed": [slow, quick], "traced": traced},
                                   {})
    # 3 calls of mean 5/3 s; 8 slices in 12 slice-lengths of time.
    assert report["host_speed"] == pytest.approx(2 / 3)
    assert report["end_to_end"]["wall_norm_s"] == pytest.approx(10 / 9)
    # Each child's set-up scales by its own speed: 0.5 * 0.5 and 0.4 * 1.
    assert report["end_to_end"]["setup_s"] == pytest.approx((0.25 + 0.4) / 2)
    # The traced call ran at reference speed, 10% over the untraced mean.
    assert report["layers"]["trace.overhead_pct"] == pytest.approx(10.0)
    line = bench.result_line({"w": report}, trace=False)
    assert set(line["metrics"]) == {name for name, _, _ in bench.END_TO_END}


def test_child_environment_drops_ambient_repro_variables():
    base = {"REPRO_WORKERS": "4", "REPRO_BACKEND": "batch", "PATH": "/bin", "PYTHONPATH": "x"}
    env = bench.child_env({"REPRO_CACHE": "1"}, base=base)
    assert {key for key in env if key.startswith("REPRO_")} == {"REPRO_CACHE"}
    assert env["PATH"] == "/bin" and env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"].split(bench.os.pathsep) == [str(bench.ROOT / "src"), "x"]


def test_benchmark_json_matches_the_tables():
    path = bench.ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json beside perf/")
    spec = json.loads(path.read_text(encoding="utf-8"))
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in spans.LAYER_METRICS
    ]


def test_real_fig14_sample_matches_golden(tmp_path):
    attempt = bench.run_child(WORKLOADS["fig14_completion"], 7, tmp_path, traced=True)
    assert attempt["ok"], attempt.get("error")
    golden = json.loads(bench.GOLDEN.read_text(encoding="utf-8"))["7"]["fig14_completion"]
    assert bench.check([attempt], golden) == [(1, 0)]
    layers = attempt["layers"]
    assert layers["core.run_session.calls"] == 8
    assert layers["trace.coverage"] >= 0.9
    self_rows = {name: value for name, value in layers.items()
                 if name.endswith(".self_s") and not name.startswith("exec.kernel.")}
    assert max(self_rows, key=self_rows.get) == "core.run_session.self_s"
    written = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"experiments.driver", "core.run_session"} <= {span["name"] for span in written}
