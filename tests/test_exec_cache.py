"""Tests for repro.exec.cache (sharded content-addressed trace store) and its CLI."""

import errno
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.exec import PACK_SCHEMA, SessionJob, TraceCache, default_cache, run_sessions
from repro.exec.__main__ import main as cache_cli
from repro.machine import SYS1, Trace


def tiny_job(run=0, duration_s=0.5):
    return SessionJob(
        spec=SYS1,
        workload="volrend",
        defense="baseline",
        seed=11,
        run_id=("cache-test", run),
        duration_s=duration_s,
    )


def synthetic_trace(n_intervals=10, completed_at_s=0.15, temperature_c=None):
    """A hand-built trace (the store only needs its fields, not a run)."""
    ticks = 20 * n_intervals
    return Trace(
        workload="w",
        platform="sys1",
        defense="maya_gs",
        tick_s=0.001,
        interval_s=0.02,
        power_w=np.linspace(19.0, 21.0, ticks),
        measured_w=np.full(n_intervals, 20.0),
        target_w=np.concatenate([[np.nan], np.full(n_intervals - 1, 21.0)]),
        settings=np.tile([2.0, 0.0, 0.5], (n_intervals, 1)),
        completed_at_s=completed_at_s,
        temperature_c=np.empty(0) if temperature_c is None else temperature_c,
    )


def shard_files(root, pattern="*.npz"):
    """Entry/sidecar files under the shard tree (sorted for stability)."""
    return sorted((root / "shards").rglob(pattern))


class TestRoundTrip:
    def test_put_get_is_bit_identical(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        trace = job.execute()
        cache.put(job, trace)
        loaded = cache.get(job)
        assert loaded is not None and loaded.equals(trace)
        assert cache.hits == 1 and cache.misses == 0

    def test_unknown_job_is_a_miss(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        assert cache.get(tiny_job()) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        cache._path(job).write_bytes(b"not an npz file")
        assert cache.get(job) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        assert not list(tmp_path.rglob(".*.tmp"))

    def test_entries_land_in_prefix_shards(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        key = job.key()
        expected = tmp_path / "shards" / key[:2] / f"{key}.npz"
        assert expected.is_file()
        assert cache._path(job) == expected
        assert (tmp_path / "journal.jsonl").is_file()


class TestEviction:
    def test_lru_trims_oldest_first(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        traces = [job.execute() for job in jobs]
        for job, trace in zip(jobs, traces):
            cache.put(job, trace)
        entry_size = cache._path(jobs[0]).stat().st_size
        # Room for roughly two entries: the oldest must go.
        cache.max_bytes = int(entry_size * 2.5)
        cache.put(jobs[0], traces[0])  # refresh 0, trigger eviction
        surviving = {path.name for path, _ in cache.entries()}
        assert f"{jobs[0].key()}.npz" in surviving
        assert len(surviving) <= 2

    def test_newest_entry_is_never_evicted(self, tmp_path):
        cache = TraceCache(root=tmp_path, max_bytes=1)  # absurdly small
        job = tiny_job()
        cache.put(job, job.execute())
        assert cache.get(job) is not None


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        cache.get(job)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["hits"] == 1
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_stats_reports_compactions_and_shard_distribution(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        for i in range(3):
            job = tiny_job(run=i)
            cache.put(job, job.execute())
        stats = cache.stats()
        assert stats["compactions"] == 0
        shards = stats["shards"]
        assert shards["occupied"] >= 1
        assert 1 <= shards["entries_min"] <= shards["entries_median"] \
            <= shards["entries_max"] <= 3
        # clear() compacts the journal eagerly and bumps the lifetime count,
        # which the layout header persists for fresh handles to pick up.
        cache.clear()
        assert cache.stats()["compactions"] == 1
        assert cache.stats()["shards"]["occupied"] == 0
        assert TraceCache(root=tmp_path).stats()["compactions"] == 1

    @pytest.mark.parametrize("value", ["big", "0", "-5", "nan", "inf"])
    def test_invalid_size_bound_env_raises(self, monkeypatch, tmp_path, value):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", value)
        with pytest.raises(ValueError, match="REPRO_CACHE_MAX_MB"):
            TraceCache(root=tmp_path)
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1.5")
        assert TraceCache(root=tmp_path).max_bytes == 1_500_000

    def test_default_cache_is_env_gated(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert default_cache() is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = default_cache()
        assert cache is not None and cache.root == tmp_path


class TestAccounting:
    def test_running_totals_match_directory_scan(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        for i in range(3):
            job = tiny_job(run=i)
            cache.put(job, job.execute())
        cache.put(tiny_job(run=1), tiny_job(run=1).execute())  # overwrite
        stats = cache.stats()
        truth = {path: size for path, size in cache.entries()}
        assert stats["entries"] == len(truth) == 3
        assert stats["total_bytes"] == sum(truth.values())

    def test_totals_seed_from_preexisting_directory(self, tmp_path):
        first = TraceCache(root=tmp_path)
        job = tiny_job()
        first.put(job, job.execute())
        # A fresh handle on the same directory must account for entries it
        # never wrote.
        second = TraceCache(root=tmp_path)
        stats = second.stats()
        assert stats["entries"] == 1 and stats["total_bytes"] > 0

    def test_evictions_are_counted(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        for job in jobs:
            cache.put(job, job.execute())
        entry_size = cache._path(jobs[0]).stat().st_size
        cache.max_bytes = int(entry_size * 1.5)
        cache.put(jobs[0], jobs[0].execute())
        assert cache.evictions >= 1
        assert cache.stats()["evictions"] == cache.evictions
        assert cache.stats()["entries"] == len(cache.entries())

    def test_cache_counters_flow_into_metrics(self, tmp_path):
        from repro import telemetry
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(root=tmp_path / "telemetry")
        telemetry.set_recorder(recorder)
        try:
            cache = TraceCache(root=tmp_path / "cache")
            job = tiny_job()
            assert cache.get(job) is None  # miss
            cache.put(job, job.execute())
            assert cache.get(job) is not None  # hit
            counters = recorder.metrics.render()["counters"]
            assert counters["exec.cache.misses"] == 1
            assert counters["exec.cache.hits"] == 1
        finally:
            telemetry.set_recorder(None)

    def test_clear_removes_telemetry_sidecars(self, tmp_path):
        from repro import telemetry
        from repro.telemetry import TelemetryRecorder

        telemetry.set_recorder(TelemetryRecorder(root=tmp_path / "telemetry"))
        try:
            cache = TraceCache(root=tmp_path / "cache")
            job = tiny_job()
            job_trace = job.execute()
            cache.put(job, job_trace)
            assert shard_files(tmp_path / "cache", "*.events.jsonl")
            cache.clear()
            assert not shard_files(tmp_path / "cache", "*.events.jsonl")
        finally:
            telemetry.set_recorder(None)

    def test_sidecar_bytes_are_accounted(self, tmp_path):
        from repro import telemetry
        from repro.telemetry import NullRecorder, TelemetryRecorder

        job = tiny_job()
        # Recording off, also under REPRO_TELEMETRY=1: the bare entry must
        # have no session stream to copy into a sidecar.
        telemetry.set_recorder(NullRecorder())
        try:
            bare = TraceCache(root=tmp_path / "bare")
            bare.put(job, job.execute())
        finally:
            telemetry.set_recorder(None)
        assert not shard_files(tmp_path / "bare", "*.events.jsonl")
        npz_only = bare.stats()["total_bytes"]

        telemetry.set_recorder(TelemetryRecorder(root=tmp_path / "telemetry"))
        try:
            with_sidecars = TraceCache(root=tmp_path / "sidecars")
            # Execute under the recorder so a session stream exists to copy.
            with_sidecars.put(job, job.execute())
        finally:
            telemetry.set_recorder(None)
        accounted = with_sidecars.stats()["total_bytes"]
        sidecar = shard_files(tmp_path / "sidecars", "*.events.jsonl")
        assert len(sidecar) == 1 and sidecar[0].stat().st_size > 0
        assert accounted >= npz_only + sidecar[0].stat().st_size

class TestPackedGroups:
    def test_put_many_packs_a_group(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        traces = [job.execute() for job in jobs]
        cache.put_many(jobs, traces)
        packs = shard_files(tmp_path, "pack-*.npz")
        assert len(packs) == 1
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["sessions"] == 3

    @pytest.mark.parametrize("fields, writer", [
        pytest.param(None, "here", id="group"),
        pytest.param({}, "here", id="completed"),
        pytest.param({"completed_at_s": float("nan")}, "here", id="nan_completion"),
        pytest.param({"temperature_c": np.linspace(30.0, 40.0, 200)}, "here",
                     id="temperature"),
        pytest.param({"temperature_c": np.empty(0)}, "here", id="empty_temperature"),
        pytest.param({}, "subprocess", id="cross_process"),
    ])
    def test_packed_round_trip_is_bit_identical(self, tmp_path, fields, writer):
        """A group pack, or a one-session pack of a hand-built trace,
        reads back bit for bit as float64 arrays, also when another
        interpreter wrote it."""
        if fields is None:
            jobs = [tiny_job(run=i) for i in range(3)]
            traces = [job.execute() for job in jobs]
        else:
            jobs = [tiny_job()]
            traces = [synthetic_trace(**fields)]
        if writer == "here":
            TraceCache(root=tmp_path).put_many(jobs, traces)
        else:
            script = (
                "import sys; sys.path.insert(0, 'src')\n"
                "from repro.exec import TraceCache\n"
                "from tests.test_exec_cache import synthetic_trace, tiny_job\n"
                f"TraceCache(root={str(tmp_path)!r}).put(tiny_job(), synthetic_trace())\n"
            )
            repo_root = pathlib.Path(__file__).resolve().parent.parent
            subprocess.run([sys.executable, "-c", script], check=True, cwd=str(repo_root))
        loaded = TraceCache(root=tmp_path).get_many(jobs)
        for got, want in zip(loaded, traces):
            assert got is not None and got.equals(want)
            for name in ("power_w", "measured_w", "target_w", "settings",
                         "temperature_c"):
                assert getattr(got, name).dtype == np.float64

    def test_get_many_matches_per_session_gets(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        traces = [job.execute() for job in jobs]
        cache.put_many(jobs, traces)
        fresh = TraceCache(root=tmp_path)
        bulk = fresh.get_many(jobs + [tiny_job(run=99)])
        assert bulk[-1] is None and fresh.misses == 1
        assert all(got.equals(want) for got, want in zip(bulk, traces))
        assert fresh.hits == 3

    def test_packed_group_evicts_as_a_unit(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        group = [tiny_job(run=i) for i in range(2)]
        cache.put_many(group, [job.execute() for job in group])
        single = tiny_job(run=9)
        cache.put(single, single.execute())
        cache.max_bytes = cache._path(single).stat().st_size + 1
        trigger = tiny_job(run=10)
        cache.put(trigger, trigger.execute())
        # The group (oldest) is gone entirely; both its keys now miss.
        assert cache.get(group[0]) is None and cache.get(group[1]) is None
        assert not shard_files(tmp_path, "pack-*.npz")

    def test_ragged_chunk_writes_one_pack_per_shape_class(self, tmp_path):
        """Sessions of equal shapes share a group pack; a session whose
        shape no other shares is a one-session pack at its key's path."""
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(4)]
        traces = [synthetic_trace(n_intervals=n) for n in (10, 12, 10, 14)]
        cache.put_many(jobs, traces)
        (group,) = shard_files(tmp_path, "pack-*.npz")
        assert {path.name for path in shard_files(tmp_path) if path != group} == {
            f"{jobs[i].key()}.npz" for i in (1, 3)
        }
        for path in shard_files(tmp_path):
            with np.load(path) as data:
                assert str(data["schema"][()]) == PACK_SCHEMA
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["sessions"] == 4
        loaded = TraceCache(root=tmp_path).get_many(jobs)
        assert all(got.equals(want) for got, want in zip(loaded, traces))

    def test_older_compressed_entry_is_a_miss_and_is_overwritten(self, tmp_path):
        """A compressed per-session file of the older entry format
        (``maya.trace.npz.v1``) at an entry path reads as a miss, and the
        recompute overwrites it with a pack."""
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        trace = job.execute()
        cache.put(job, trace)
        fields = ("workload", "platform", "defense", "tick_s", "interval_s",
                  "power_w", "measured_w", "target_w", "settings",
                  "completed_at_s", "temperature_c")
        np.savez_compressed(
            cache._path(job),
            schema=np.asarray("maya.trace.npz.v1"),
            field_order=np.asarray(",".join(fields)),
            **{name: np.asarray(getattr(trace, name)) for name in fields},
        )

        fresh = TraceCache(root=tmp_path)
        assert fresh.get(job) is None
        (again,) = run_sessions([job], cache=fresh)
        assert again.equals(trace)
        with np.load(cache._path(job)) as data:
            assert str(data["schema"][()]) == PACK_SCHEMA
        assert TraceCache(root=tmp_path).get(job).equals(trace)


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _garble(path):
    data = bytearray(path.read_bytes())
    middle = len(data) // 2
    data[middle:middle + 64] = b"\xff" * 64
    path.write_bytes(bytes(data))


def _not_a_zip(path):
    path.write_bytes(b"not an npz file")


class TestDamagedEntries:
    """A damaged entry degrades to a recompute, never to a crash."""

    @pytest.mark.parametrize("damage", [_truncate, _garble, _not_a_zip])
    def test_damaged_single_and_packed_entries_recompute(self, tmp_path, damage):
        cache = TraceCache(root=tmp_path)
        single = tiny_job(run=0)
        group = [tiny_job(run=i) for i in (1, 2)]
        originals = [job.execute() for job in [single] + group]
        cache.put(single, originals[0])
        cache.put_many(group, originals[1:])
        damage(cache._path(single))
        (pack,) = shard_files(tmp_path, "pack-*.npz")
        damage(pack)

        fresh = TraceCache(root=tmp_path)
        assert fresh.get_many([single] + group) == [None, None, None]
        traces = run_sessions([single] + group, cache=fresh)
        assert all(got.equals(want) for got, want in zip(traces, originals))
        # The recompute overwrote the damaged entries: every key hits now.
        replay = TraceCache(root=tmp_path).get_many([single] + group)
        assert all(got.equals(want) for got, want in zip(replay, originals))


    def test_missing_and_torn_sidecars_still_serve_the_traces(self, tmp_path):
        from repro import telemetry
        from repro.telemetry import TelemetryRecorder, job_identity

        jobs = [tiny_job(run=run) for run in range(3)]
        originals = run_sessions(jobs, cache=False)
        first = TelemetryRecorder(root=tmp_path / "first")
        telemetry.set_recorder(first)
        try:
            run_sessions(jobs, cache=TraceCache(root=tmp_path / "cache"))
        finally:
            telemetry.set_recorder(None)
        cache = TraceCache(root=tmp_path / "cache")
        missing, torn, intact = (
            cache._key_sidecar(job.key(), ".events.jsonl") for job in jobs
        )
        missing.unlink()
        data = torn.read_bytes()
        cut = data.index(b"\n") + 1 + data[data.index(b"\n") + 1:].index(b":")
        torn.write_bytes(data[:cut])  # ends mid-way through the second record

        second = TelemetryRecorder(root=tmp_path / "second")
        telemetry.set_recorder(second)
        try:
            traces = run_sessions(jobs, cache=cache)
            hits = second.metrics.counter_value("exec.cache.hits")
            replayed = second.metrics.counter_value("telemetry.sessions.replayed")
        finally:
            telemetry.set_recorder(None)
        assert hits == len(jobs)
        assert all(got.equals(want) for got, want in zip(traces, originals))
        # A torn sidecar counts as absent: like the missing one, it leaves
        # no session file and is not counted as replayed.
        for job in jobs[:2]:
            assert not second.session_path(job_identity(job)).exists()
        assert replayed == 1
        # The intact sidecar still replays the original session file.
        identity = job_identity(jobs[2])
        assert (
            second.session_path(identity).read_bytes()
            == first.session_path(identity).read_bytes()
        )


class TestFailedWrites:
    """A store write that fails degrades to a miss, never to a crash."""

    @pytest.mark.parametrize("runs", [(0,), (1, 2)], ids=["single", "packed"])
    def test_enospc_on_put_keeps_the_traces(self, tmp_path, monkeypatch, runs):
        from repro import telemetry
        from repro.exec import cache as cache_module
        from repro.telemetry import TelemetryRecorder

        jobs = [tiny_job(run=run) for run in runs]
        originals = run_sessions(jobs, cache=False)

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cache_module, "_save_pack", full_disk)
        recorder = TelemetryRecorder(root=tmp_path / "telemetry")
        telemetry.set_recorder(recorder)
        try:
            # One chunk, so the packed case writes (and fails) one group
            # pack under any REPRO_WORKERS.
            traces = run_sessions(jobs, workers=1, cache=TraceCache(root=tmp_path / "cache"))
            counters = recorder.metrics.render()["counters"]
        finally:
            telemetry.set_recorder(None)
        assert all(got.equals(want) for got, want in zip(traces, originals))
        # One failed pack: the lone session's, or the group's.
        assert counters["exec.cache.put_errors"] == 1
        assert shard_files(tmp_path / "cache") == []

        monkeypatch.undo()
        fresh = TraceCache(root=tmp_path / "cache")
        assert fresh.get_many(jobs) == [None] * len(jobs)
        again = run_sessions(jobs, cache=fresh)
        assert all(got.equals(want) for got, want in zip(again, originals))
        replay = TraceCache(root=tmp_path / "cache").get_many(jobs)
        assert all(got.equals(want) for got, want in zip(replay, originals))


class TestJournal:
    def test_fresh_handle_replays_journal_without_scanning(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(2)]
        traces = [job.execute() for job in jobs]
        for job, trace in zip(jobs, traces):
            cache.put(job, trace)
        fresh = TraceCache(root=tmp_path)
        assert fresh.get(jobs[1]).equals(traces[1])
        assert fresh.stats()["tree_scans"] == 0

    def test_eviction_never_rescans_the_tree(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        for job in jobs:
            cache.put(job, job.execute())
        cache.max_bytes = cache._path(jobs[0]).stat().st_size * 2
        cache.put(tiny_job(run=7), tiny_job(run=7).execute())
        assert cache.evictions >= 1
        assert cache.stats()["tree_scans"] == 0

    def test_concurrent_handles_converge_through_the_journal(self, tmp_path):
        writer = TraceCache(root=tmp_path)
        reader = TraceCache(root=tmp_path)
        job_a = tiny_job(run=0)
        trace_a = job_a.execute()
        writer.put(job_a, trace_a)
        # The reader handle was opened before the write: it must pick the
        # entry up by tailing the journal, not by rescanning.
        assert reader.get(job_a).equals(trace_a)
        assert reader.stats()["entries"] == 1
        assert reader.stats()["tree_scans"] == 0

    def test_missing_journal_recovers_with_one_scan(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        trace = job.execute()
        cache.put(job, trace)
        (tmp_path / "journal.jsonl").unlink()
        recovered = TraceCache(root=tmp_path)
        assert recovered.get(job).equals(trace)
        stats = recovered.stats()
        assert stats["entries"] == 1
        assert stats["tree_scans"] == 1

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        trace = job.execute()
        cache.put(job, trace)
        with open(tmp_path / "journal.jsonl", "ab") as stream:
            stream.write(b'{"op":"put","id":"torn')  # no newline: mid-crash
        fresh = TraceCache(root=tmp_path)
        assert fresh.get(job).equals(trace)
        assert fresh.stats()["entries"] == 1


class TestMerge:
    def test_export_import_round_trip(self, tmp_path):
        source = TraceCache(root=tmp_path / "src")
        jobs = [tiny_job(run=i) for i in range(2)]
        traces = [job.execute() for job in jobs]
        source.put_many(jobs, traces)
        archive = tmp_path / "shards.tar"
        exported = source.export_archive(archive)
        assert exported["files"] >= 1
        target = TraceCache(root=tmp_path / "dst")
        report = target.import_archive(archive)
        assert report["entries"] == 1  # one packed group
        for job, trace in zip(jobs, traces):
            assert target.get(job).equals(trace)

    def test_import_skips_existing_keys(self, tmp_path):
        source = TraceCache(root=tmp_path / "src")
        job = tiny_job()
        source.put(job, job.execute())
        archive = tmp_path / "shards.tar"
        source.export_archive(archive)
        target = TraceCache(root=tmp_path / "dst")
        target.put(job, job.execute())
        report = target.import_archive(archive)
        assert report["entries"] == 0
        assert report["skipped"] >= 1

    def test_export_is_deterministic(self, tmp_path):
        cache = TraceCache(root=tmp_path / "store")
        jobs = [tiny_job(run=i) for i in range(2)]
        cache.put_many(jobs, [job.execute() for job in jobs])
        first = tmp_path / "a.tar"
        second = tmp_path / "b.tar"
        cache.export_archive(first)
        cache.export_archive(second)
        assert first.read_bytes() == second.read_bytes()

    def test_import_rejects_traversal_members(self, tmp_path):
        import io
        import tarfile

        archive = tmp_path / "evil.tar"
        with tarfile.open(archive, "w") as tar:
            for name in ("../escape.npz", "shards/../../escape.npz",
                         "not-shards/ab/x.npz"):
                data = b"x"
                info = tarfile.TarInfo(name)
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        target = TraceCache(root=tmp_path / "dst")
        report = target.import_archive(archive)
        assert report["files"] == 0 and report["entries"] == 0
        assert not (tmp_path / "escape.npz").exists()


class TestCli:
    def test_stats_command(self, tmp_path, capsys):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        assert cache_cli(["--cache", "stats", "--dir", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 1
        assert report["layout"] == "sharded-v2"
        assert report["tree_scans"] == 0
        assert report["compactions"] == 0
        assert report["shards"]["occupied"] == 1
        assert report["shards"]["entries_min"] == 1
        assert report["shards"]["entries_median"] == 1.0
        assert report["shards"]["entries_max"] == 1

    def test_clear_command(self, tmp_path, capsys):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        assert cache_cli(["--cache", "clear", "--dir", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == 1
        assert not list(tmp_path.rglob("*.npz"))

    def test_export_import_commands(self, tmp_path, capsys):
        cache = TraceCache(root=tmp_path / "src")
        job = tiny_job()
        trace = job.execute()
        cache.put(job, trace)
        archive = tmp_path / "shards.tar"
        assert cache_cli(["--cache", "export", "--dir", str(tmp_path / "src"),
                          "--archive", str(archive)]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported["files"] >= 1
        assert cache_cli(["--cache", "import", "--dir", str(tmp_path / "dst"),
                          "--archive", str(archive)]) == 0
        imported = json.loads(capsys.readouterr().out)
        assert imported["entries"] == 1
        assert TraceCache(root=tmp_path / "dst").get(job).equals(trace)

    def test_export_requires_archive(self, tmp_path, capsys):
        assert cache_cli(["--cache", "export", "--dir", str(tmp_path)]) == 2
        capsys.readouterr()
