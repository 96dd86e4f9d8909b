"""Telemetry determinism: identical runs emit byte-identical event streams.

The tentpole invariant of ``repro.telemetry``: because every session event
is keyed on sim time (the control-interval index) and serialized through
one canonical encoder, executing the same :class:`SessionJob`

* alone (``SessionJob.execute``, a one-row lock-step call) vs. in one of
  the engine's multi-row chunks,
* fresh vs. replayed from the trace cache,
* in-process vs. in a worker process,

produces byte-identical ``session-<digest>.jsonl`` files.  A perturbed
seed must break the identity — otherwise the oracle is vacuous.
"""

import json

import pytest

from repro import telemetry
from repro.exec import SessionJob, TraceCache, run_sessions
from repro.telemetry import TelemetryRecorder
from repro.telemetry.__main__ import main as telemetry_cli

DURATION_S = 1.0


@pytest.fixture()
def recorder_root(tmp_path):
    root = tmp_path / "telemetry"
    telemetry.set_recorder(TelemetryRecorder(root=root))
    yield root
    telemetry.set_recorder(None)


def _jobs(sys1_factory, seeds=(11, 12)):
    return [
        SessionJob.for_factory(
            sys1_factory,
            workload="volrend",
            defense="maya_gs",
            seed=seed,
            run_id=0,
            duration_s=DURATION_S,
        )
        for seed in seeds
    ]


def _collect_sessions(root):
    """Map session digest -> file bytes, then clear the directory."""
    streams = {}
    for path in sorted(root.glob("session-*.jsonl")):
        streams[path.name] = path.read_bytes()
        path.unlink()
    return streams


def _strip_manifest(data: bytes) -> list:
    lines = data.decode("utf-8").splitlines()
    return [
        line for line in lines if json.loads(line).get("type") != "manifest"
    ]


def _reference(jobs, factory):
    """Every job alone, ``SessionJob.execute``."""
    return [job.execute(factory=factory) for job in jobs]


def test_serial_and_batch_streams_are_byte_identical(sys1_factory, recorder_root):
    jobs = _jobs(sys1_factory)
    _reference(jobs, sys1_factory)
    serial = _collect_sessions(recorder_root)
    run_sessions(jobs, factory=sys1_factory, workers=1, cache=False)
    batched = _collect_sessions(recorder_root)

    # Same identity digests: the file names must line up one-to-one.
    assert set(serial) == set(batched) and len(serial) == len(jobs)
    for name in serial:
        assert _strip_manifest(serial[name]) == _strip_manifest(batched[name])
        # One engine and one job key: the manifests are identical too.
        manifest = json.loads(serial[name].split(b"\n", 1)[0])
        assert manifest["engine"] == "lockstep"
        assert manifest == json.loads(batched[name].split(b"\n", 1)[0])


def test_backend_identity_via_cli_diff(sys1_factory, recorder_root, tmp_path, capsys):
    """Acceptance: event streams of one-row calls, in-process
    lock-step chunks (``workers=1``) and chunks fanned out over a worker
    pool (``workers=2``) verified identical by ``python -m repro.telemetry
    diff``."""
    jobs = _jobs(sys1_factory)
    runs = {
        "reference": lambda: _reference(jobs, sys1_factory),
        "workers1": lambda: run_sessions(
            jobs, factory=sys1_factory, workers=1, cache=False
        ),
        "workers2": lambda: run_sessions(
            jobs, factory=sys1_factory, workers=2, cache=False
        ),
    }
    copies = {}
    for label, run in runs.items():
        run()
        streams = _collect_sessions(recorder_root)
        assert len(streams) == len(jobs)
        for name, data in streams.items():
            copy = tmp_path / f"{label}-{name}"
            copy.write_bytes(data)
            copies.setdefault(name, {})[label] = copy
    for by_label in copies.values():
        for label in ("workers1", "workers2"):
            assert telemetry_cli(
                ["diff", str(by_label["reference"]), str(by_label[label])]
            ) == 0
    out = capsys.readouterr().out
    assert out.count("identical") == 2 * len(jobs)


def test_cache_replay_is_byte_identical_including_manifest(
    sys1_factory, recorder_root, tmp_path
):
    cache = TraceCache(root=tmp_path / "cache")
    jobs = _jobs(sys1_factory, seeds=(11,))
    run_sessions(jobs, factory=sys1_factory, cache=cache)
    fresh = _collect_sessions(recorder_root)
    run_sessions(jobs, factory=sys1_factory, cache=cache)
    replayed = _collect_sessions(recorder_root)
    assert cache.hits == 1
    # The sidecar replays the original bytes: even the manifest (recording
    # the *original* execution's engine and git SHA) is preserved.
    assert fresh == replayed


def test_perturbed_seed_changes_the_stream(sys1_factory, recorder_root):
    run_sessions(
        _jobs(sys1_factory, seeds=(11,)),
        factory=sys1_factory, cache=False,
    )
    base = _collect_sessions(recorder_root)
    run_sessions(
        _jobs(sys1_factory, seeds=(13,)),
        factory=sys1_factory, cache=False,
    )
    perturbed = _collect_sessions(recorder_root)
    # Different seed -> different identity digest -> different file name...
    assert set(base) != set(perturbed)
    # ...and genuinely different measurements, not just a renamed file.
    (base_data,), (perturbed_data,) = base.values(), perturbed.values()
    assert _strip_manifest(base_data) != _strip_manifest(perturbed_data)


def test_null_recorder_leaves_no_files(sys1_factory, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.chdir(tmp_path)
    telemetry.set_recorder(None)
    run_sessions(
        _jobs(sys1_factory, seeds=(11,)),
        factory=sys1_factory, cache=False,
    )
    assert not (tmp_path / telemetry.DEFAULT_TELEMETRY_DIR).exists()
    assert list(tmp_path.iterdir()) == []
