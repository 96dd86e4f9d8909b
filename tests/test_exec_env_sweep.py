"""Env sweep: execution-infrastructure env vars never change results.

Lint rule MAYA050 keeps environment reads out of the simulation packages
and the lock-step kernel; :mod:`repro.host` reads every ``REPRO_*`` knob,
and this sweep checks what the engine does with them.  The same
``SessionJob`` must produce the same content address and a bit-identical
trace whether its lock-step chunks run in-process or across workers, with
telemetry or span profiling on, recorded in the run registry, or stored
in and replayed from the trace cache -- the infrastructure knobs select
*how* the work is done, never *what* is computed.
"""

from dataclasses import fields

from repro import telemetry
from repro.exec import SessionJob, record_run, run_sessions
from repro.host import Settings
from repro.machine import SYS1
from repro.telemetry import profile

#: Every ``REPRO_*`` knob, one per :class:`Settings` field.
KNOBS = tuple(f"REPRO_{field.name.upper()}" for field in fields(Settings))
#: The directory knobs: each points under the test's ``tmp_path``.
DIR_KNOBS = tuple(name for name in KNOBS if name.endswith("_DIR"))

#: The sweep matrix: each entry is one infrastructure configuration.
SWEEP = (
    {"REPRO_WORKERS": "2", "REPRO_JOB_TIMEOUT_S": "30"},
    {"REPRO_TELEMETRY": "1"},
    {"REPRO_PROFILE": "1"},
    {"REPRO_REGISTRY": "1"},
    {"REPRO_CACHE": "1", "REPRO_CACHE_MAX_MB": "1"},
)


def sweep_jobs():
    return [
        SessionJob(
            spec=SYS1,
            workload=workload,
            defense="baseline",
            seed=13,
            run_id=("env-sweep", workload),
            duration_s=0.5,
        )
        for workload in ("volrend", "water_nsquared")
    ]


def run_under(monkeypatch, root, env):
    """Keys and traces of the sweep jobs, run twice under ``env`` alone.

    The second run replays the first from the trace store when the
    configuration turns the store on.
    """
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)
    for name in DIR_KNOBS:
        monkeypatch.setenv(name, str(root / name.lower()))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    # Re-derive the ambient sinks from the patched environment.
    telemetry.set_recorder(None)
    profile.set_profiler(None)
    try:
        jobs = sweep_jobs()
        keys = [job.key() for job in jobs]
        runs = [run_sessions(jobs) for _ in range(2)]
        record_run(kind="traces", name="env-sweep", jobs=jobs)
    finally:
        telemetry.set_recorder(None)
        profile.set_profiler(None)
    return keys, runs


def trace_bytes(trace):
    """Every array field as raw bytes — the bit-identity oracle."""
    return (
        trace.power_w.tobytes(),
        trace.measured_w.tobytes(),
        trace.target_w.tobytes(),
        trace.settings.tobytes(),
        trace.temperature_c.tobytes(),
        repr(trace.completed_at_s),
    )


class TestEnvSweep:
    def test_sweep_turns_every_knob(self):
        """A knob added to :class:`Settings` fails here until it is swept."""
        swept = {name for env in SWEEP for name in env}
        assert swept | set(DIR_KNOBS) == set(KNOBS)

    def test_key_and_trace_are_env_invariant(self, monkeypatch, tmp_path):
        baseline_keys, (baseline_traces, _) = run_under(monkeypatch, tmp_path / "base", {})
        for index, env in enumerate(SWEEP):
            keys, runs = run_under(monkeypatch, tmp_path / str(index), env)
            assert keys == baseline_keys, env
            for traces in runs:
                assert len(traces) == len(baseline_traces)
                for got, want in zip(traces, baseline_traces):
                    assert got.equals(want), env
                    assert trace_bytes(got) == trace_bytes(want), env
        # Each knob took effect where it points.
        assert list((tmp_path / "4" / "repro_cache_dir").rglob("*.npz"))
        assert (tmp_path / "2" / "repro_profile_dir" / "profile.jsonl").is_file()
        assert list((tmp_path / "3" / "repro_registry_dir" / "runs").glob("*.json"))
        assert list((tmp_path / "1" / "repro_telemetry_dir").glob("session-*.jsonl"))
