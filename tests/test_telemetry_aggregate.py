"""Tests for repro.telemetry.aggregate / export: rollups, merge, exposition."""

import json
import random

import pytest

from repro.telemetry import Histogram, MetricsRegistry
from repro.telemetry.__main__ import main as telemetry_cli
from repro.telemetry.aggregate import (
    ROLLUP_SCHEMA,
    discover,
    fleet_rollup,
    merged_registry,
    span_tree,
)
from repro.telemetry.export import (
    bench_history,
    parse_prometheus,
    render_history,
    to_json,
    to_prometheus,
)

EDGES = (1.0, 2.0, 4.0)


def sample_registry(counter=3, values=(0.5, 3.0)):
    registry = MetricsRegistry()
    registry.count("exec.cache.hits", counter)
    registry.count("exec.cache.misses", 1)
    registry.gauge("bench.speedup", 1.5)
    for value in values:
        registry.observe("telemetry.err_w", value, edges=EDGES)
    return registry


def write_session(path, defense="baseline", engine="batch", errs=(1.0, 2.0)):
    lines = [
        {"type": "manifest", "defense": defense, "engine": engine},
    ]
    for t, err in enumerate(errs):
        lines.append({
            "type": "event", "ev": "interval", "t": t,
            "err_w": err, "target_w": 30.0 + err,
        })
    lines.append({
        "type": "end", "intervals": len(errs),
        "saturation_steps": 1, "antiwindup_steps": 0,
    })
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def write_profile(path):
    spans = [
        {"type": "manifest", "schema": "maya.telemetry.profile.v1"},
        {"type": "span", "id": "aa", "parent": "", "name": "run",
         "depth": 0, "t0_s": 0.0, "dur_s": 1.0},
        {"type": "span", "id": "bb", "parent": "aa", "name": "chunk",
         "depth": 1, "t0_s": 0.0, "dur_s": 0.96},
    ]
    path.write_text("".join(json.dumps(span) + "\n" for span in spans))


class TestRegistryMerge:
    def test_merge_equals_single_observer(self):
        """The acceptance invariant: merged == sum of per-session snapshots."""
        parts = [sample_registry(counter=i + 1, values=(0.5 * i, 3.0)) for i in range(4)]
        single = MetricsRegistry()
        for i in range(4):
            single.count("exec.cache.hits", i + 1)
            single.count("exec.cache.misses", 1)
            single.gauge("bench.speedup", 1.5)
            for value in (0.5 * i, 3.0):
                single.observe("telemetry.err_w", value, edges=EDGES)
        merged = MetricsRegistry()
        for part in parts:
            merged.merge(part)
        assert merged.render() == single.render()

    def test_merge_accepts_rendered_snapshots(self):
        merged = MetricsRegistry().merge(sample_registry().render())
        assert merged.render() == sample_registry().render()

    def test_counter_and_histogram_merge_is_commutative(self):
        a, b = sample_registry(counter=2), sample_registry(counter=5, values=(9.0,))
        ab = MetricsRegistry().merge(a).merge(b).render()
        ba = MetricsRegistry().merge(b).merge(a).render()
        assert ab["counters"] == ba["counters"]
        assert ab["histograms"] == ba["histograms"]

    def test_merge_is_associative(self):
        parts = [sample_registry(counter=i, values=(float(i),)) for i in range(1, 4)]
        left = MetricsRegistry().merge(parts[0]).merge(parts[1]).merge(parts[2])
        inner = MetricsRegistry().merge(parts[1]).merge(parts[2])
        right = MetricsRegistry().merge(parts[0]).merge(inner)
        assert left.render() == right.render()

    def test_edge_values_keep_their_bucket_across_merge(self):
        # observe() buckets edge values into the bucket they bound; a merge
        # must preserve the counts verbatim rather than re-bucketing.
        direct = MetricsRegistry()
        for value in EDGES:
            direct.observe("h", value, edges=EDGES)
        merged = MetricsRegistry().merge(direct.render())
        assert merged.render()["histograms"]["h"]["counts"] == \
            direct.render()["histograms"]["h"]["counts"]

    def test_mismatched_edges_raise(self):
        hist = Histogram(EDGES)
        with pytest.raises(ValueError):
            hist.merge({"edges": [1.0, 8.0], "counts": [0, 0, 0], "count": 0, "sum": 0.0})
        with pytest.raises(ValueError):
            hist.merge({"edges": list(EDGES), "counts": [0], "count": 0, "sum": 0.0})


class TestDiscover:
    def test_classifies_telemetry_dir_and_store(self, tmp_path):
        tdir = tmp_path / "telemetry"
        tdir.mkdir()
        write_session(tdir / "session-abc.jsonl")
        (tdir / "metrics.json").write_text(json.dumps(sample_registry().render()))
        (tdir / "ops.jsonl").write_text("{}\n")
        write_profile(tdir / "profile.jsonl")
        shard = tmp_path / "store" / "shards" / "ab"
        shard.mkdir(parents=True)
        (shard / "abcd.npz").write_bytes(b"x")
        write_session(shard / "abcd.events.jsonl", engine="serial")

        found = discover([tdir, tmp_path / "store"])
        assert [p.name for p in found["sessions"]] == \
            ["abcd.events.jsonl", "session-abc.jsonl"]
        assert [p.name for p in found["metrics"]] == ["metrics.json"]
        assert [p.name for p in found["profiles"]] == ["profile.jsonl"]
        assert [p.name for p in found["ops"]] == ["ops.jsonl"]
        assert found["stores"] == [tmp_path / "store"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover([tmp_path / "nope"])

    def test_merged_registry_matches_snapshot_sum(self, tmp_path):
        parts = [sample_registry(counter=i + 1) for i in range(3)]
        paths = []
        for i, part in enumerate(parts):
            path = tmp_path / f"metrics-{i}.json"
            path.write_text(json.dumps(part.render()))
            paths.append(path)
        merged = merged_registry(paths).render()
        assert merged["counters"]["exec.cache.hits"] == 1 + 2 + 3
        assert merged["histograms"]["telemetry.err_w"]["count"] == 6


class TestFleetRollup:
    def build_fleet(self, tmp_path):
        tdir = tmp_path / "telemetry"
        tdir.mkdir()
        write_session(tdir / "session-a.jsonl", errs=(1.0, 2.0, 3.0))
        write_session(tdir / "session-b.jsonl", defense="maya", errs=(3.0, 4.0))
        (tdir / "metrics.json").write_text(json.dumps(sample_registry().render()))
        write_profile(tdir / "profile.jsonl")
        return tdir

    def test_rollup_contents(self, tmp_path):
        rollup = fleet_rollup([self.build_fleet(tmp_path)])
        assert rollup["schema"] == ROLLUP_SCHEMA
        assert rollup["sessions"]["count"] == 2
        assert rollup["sessions"]["by_defense"] == {"baseline": 1, "maya": 1}
        assert rollup["sessions"]["intervals"] == 5
        assert rollup["cache"]["hits"] == 3
        assert rollup["cache"]["hit_rate"] == pytest.approx(0.75)
        series = rollup["intervals"]["abs_err_w"]
        assert series["t_max"] == 2 and series["sessions_at_t0"] == 2
        assert series["p50"][0] == pytest.approx(2.0)  # median of {1.0, 3.0}
        assert series["max"][2] == pytest.approx(3.0)  # only session-a reaches t=2
        assert rollup["spans"]["roots"][0]["name"] == "run"
        assert rollup["spans"]["roots"][0]["coverage"] == pytest.approx(0.96)

    def test_rollup_is_order_independent(self, tmp_path):
        tdir = self.build_fleet(tmp_path)
        inputs = sorted(tdir.iterdir())
        baseline = fleet_rollup(inputs)
        for seed in range(3):
            shuffled = list(inputs)
            random.Random(seed).shuffle(shuffled)
            assert fleet_rollup(shuffled) == baseline

    def test_store_occupancy(self, tmp_path):
        store = tmp_path / "store"
        for prefix, n in (("aa", 1), ("bb", 3)):
            shard = store / "shards" / prefix
            shard.mkdir(parents=True)
            for i in range(n):
                (shard / f"e{i}.npz").write_bytes(b"x")
        rollup = fleet_rollup([store])
        assert rollup["store"] == {
            "occupied": 2, "entries": 4, "entries_min": 1,
            "entries_median": 2.0, "entries_max": 3,
        }

    def test_span_tree_self_time(self, tmp_path):
        write_profile(tmp_path / "profile.jsonl")
        tree = span_tree([tmp_path / "profile.jsonl"])
        run = tree["roots"][0]
        assert tree["wall_s"] == pytest.approx(1.0)
        assert run["self_s"] == pytest.approx(0.04)
        assert run["children"][0]["name"] == "chunk"


class TestPrometheus:
    def test_round_trip_is_exact(self):
        snapshot = sample_registry().render()
        assert parse_prometheus(to_prometheus(snapshot)) == snapshot

    def test_exposition_format(self):
        text = to_prometheus(sample_registry().render())
        assert "# TYPE maya_exec_cache_hits counter" in text
        assert "# HELP maya_exec_cache_hits exec.cache.hits" in text
        assert 'maya_telemetry_err_w_bucket{le="+Inf"} 2' in text
        assert "maya_telemetry_err_w_count 2" in text

    def test_rollup_payload_unwraps_to_metrics(self, tmp_path):
        rollup = {"schema": ROLLUP_SCHEMA, "metrics": sample_registry().render()}
        assert parse_prometheus(to_prometheus(rollup)) == sample_registry().render()

    def test_name_collision_raises(self):
        payload = {"counters": {"a.b": 1, "a_b": 2}, "gauges": {}, "histograms": {}}
        with pytest.raises(ValueError):
            to_prometheus(payload)

    def test_json_is_canonical(self):
        rendered = sample_registry().render()
        assert json.loads(to_json(rendered)) == rendered
        assert to_json(rendered) == to_json(json.loads(to_json(rendered)))


class TestBenchHistory:
    def fake_registry(self, tmp_path, results_list):
        from repro.exec.registry import RunRegistry

        registry = RunRegistry(root=tmp_path / "registry")
        for i, results in enumerate(results_list):
            registry.record("bench", f"bench-{i}", results=results)
        registry.record("attack", "not-a-bench", results={"parallel_speedup": 0.0})
        return registry

    def test_flags_below_floor_results(self, tmp_path):
        registry = self.fake_registry(tmp_path, [
            {"parallel_speedup": 2.0, "batched_speedup": 12.0},
            {"parallel_speedup": 1.1, "batched_speedup": 12.0},
        ])
        report = bench_history(registry=registry)
        assert len(report["rows"]) == 2  # the attack run is excluded
        assert report["rows"][0]["flags"] == []
        assert report["rows"][1]["flags"] == ["parallel_speedup"]
        assert report["regressions"] == ["parallel_speedup"]
        rendered = render_history(report)
        assert "REGRESSIONS" in rendered and "1.10!" in rendered

    def test_floor_overrides(self, tmp_path):
        registry = self.fake_registry(tmp_path, [{"parallel_speedup": 2.0}])
        report = bench_history(registry=registry, floors={"parallel_speedup": 5.0})
        assert report["regressions"] == ["parallel_speedup"]

    def test_empty_registry(self, tmp_path):
        from repro.exec.registry import RunRegistry

        report = bench_history(registry=RunRegistry(root=tmp_path / "empty"))
        assert report["rows"] == [] and report["regressions"] == []


class TestSyntheticJobs:
    def test_sidecar_helpers_skip_jobs_without_identity(self, tmp_path):
        """The store micro-bench's synthetic jobs have a cache key but no
        behavioural identity; telemetry-on runs must skip their sidecars
        instead of crashing (regression)."""
        from repro import telemetry as t
        from repro.telemetry import TelemetryRecorder

        class FakeJob:
            def key(self):
                return "f" * 40

        t.set_recorder(TelemetryRecorder(root=tmp_path))
        try:
            assert t.store_session_events(tmp_path / "side.jsonl", FakeJob()) == 0
            (tmp_path / "side.jsonl").write_text("{}\n")
            assert t.restore_session_events(tmp_path / "side.jsonl", FakeJob()) == 0
        finally:
            t.set_recorder(None)


class TestCli:
    def test_aggregate_export_profile_verbs(self, tmp_path, capsys):
        tdir = tmp_path / "telemetry"
        tdir.mkdir()
        write_session(tdir / "session-a.jsonl")
        (tdir / "metrics.json").write_text(json.dumps(sample_registry().render()))
        write_profile(tdir / "profile.jsonl")

        rollup_path = tmp_path / "rollup.json"
        assert telemetry_cli(["aggregate", str(tdir), "--out", str(rollup_path)]) == 0
        capsys.readouterr()
        rollup = json.loads(rollup_path.read_text())
        assert rollup["schema"] == ROLLUP_SCHEMA

        assert telemetry_cli(["export", str(rollup_path)]) == 0
        text = capsys.readouterr().out
        assert parse_prometheus(text) == rollup["metrics"]

        assert telemetry_cli(["export", str(rollup_path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == rollup

        assert telemetry_cli(["profile", str(tdir)]) == 0
        out = capsys.readouterr().out
        assert "run" in out and "chunk" in out

    def test_summarize_accepts_store_roots(self, tmp_path, capsys):
        shard = tmp_path / "store" / "shards" / "ab"
        shard.mkdir(parents=True)
        write_session(shard / "abcd.events.jsonl")
        assert telemetry_cli(["summarize", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "abcd.events.jsonl" in out
        assert "intervals" in out
