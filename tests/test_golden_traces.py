"""Golden trace digests: the bit-identity oracle pinned in the repository.

Every execution path must produce the traces of the serial reference
(``SessionJob.execute``).  The other tests compare paths against each
other at run time; this module also pins the reference itself, as one
sha256 per session of a small mixed fleet, so a kernel refactor that
changed *every* path the same way still fails.

The absolute digests depend on the floating-point build (numpy and the
BLAS it dispatches to), so the fixture records both.  On a different
build only the absolute comparison is skipped; the cross-path identity
checks always run.

Regenerate the fixture (only for a deliberate change of the simulated
semantics, never to make a refactor pass)::

    PYTHONPATH=src python -m tests.test_golden_traces
"""

from __future__ import annotations

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.exec import SessionJob, execute_jobs_batched, run_sessions

FIXTURE = Path(__file__).parent / "fixtures" / "golden_traces.json"

#: (workload, defense, extra SessionJob fields) of every golden session.
#: Several Maya families share one batch with the open-loop designs; the
#: last three rows cover a short fixed duration, run-to-completion with a
#: tail and temperature recording.
GOLDEN_ROWS = (
    ("volrend", "maya_gs", {}),
    ("water_nsquared", "maya_gs", {}),
    ("volrend", "maya_constant", {}),
    ("water_nsquared", "maya_uniform", {}),
    ("volrend", "random_inputs", {}),
    ("water_nsquared", "noisy_baseline", {}),
    ("volrend", "baseline", {}),
    ("water_nsquared", "maya_gs", {"duration_s": 0.4}),
    ("loop_imul", "maya_gs", {
        "workload_kwargs": {"duration_s": 0.3},
        "duration_s": None, "max_duration_s": 2.0, "tail_s": 0.1,
    }),
    ("volrend", "maya_sinusoid", {"record_temperature": True}),
)


def golden_jobs(factory) -> "list[SessionJob]":
    jobs = []
    for index, (workload, defense, fields) in enumerate(GOLDEN_ROWS):
        fields = {"duration_s": 1.0, **fields}
        jobs.append(SessionJob.for_factory(
            factory, workload=workload, defense=defense, seed=7,
            run_id=("golden", index), **fields,
        ))
    return jobs


def trace_digest(trace) -> str:
    """sha256 over a trace's labels and arrays, as little-endian float64."""
    digest = hashlib.sha256()
    for label in (trace.workload, trace.platform, trace.defense):
        digest.update(str(label).encode() + b"\x1f")
    scalars = [trace.tick_s, trace.interval_s, trace.completed_at_s]
    for array in (scalars, trace.power_w, trace.measured_w, trace.target_w,
                  trace.settings, trace.temperature_c):
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes() + b"\x1e")
    return digest.hexdigest()


def _openblas_config() -> str:
    """The OpenBLAS configuration string, including the runtime core type.

    A ``DYNAMIC_ARCH`` OpenBLAS picks its kernels by CPU at load time, so
    the runtime string (read from the bundled library when the wheel ships
    one) identifies the arithmetic better than the build-time record.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                       "openblas_get_config"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_char_p
                return getter().decode()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return str(blas.get("openblas configuration", blas.get("name", "unknown")))


def float_build() -> dict:
    return {"numpy": np.__version__, "openblas": _openblas_config()}


@pytest.fixture(scope="module")
def golden_fleet(sys1_factory):
    jobs = golden_jobs(sys1_factory)
    return jobs, [trace_digest(job.execute(sys1_factory)) for job in jobs]


class TestGoldenTraces:
    def test_fleet_covers_every_regime(self, golden_fleet):
        jobs, _ = golden_fleet
        defenses = {job.defense for job in jobs}
        assert {"maya_gs", "maya_constant", "random_inputs",
                "noisy_baseline", "baseline"} <= defenses
        assert len({d for d in defenses if d.startswith("maya_")}) >= 3
        assert any(job.duration_s is None and job.tail_s > 0 for job in jobs)
        assert any(job.record_temperature for job in jobs)

    def test_reference_matches_pinned_digests(self, golden_fleet):
        _, digests = golden_fleet
        pinned = json.loads(FIXTURE.read_text())
        if pinned["float_build"] != float_build():
            pytest.skip(
                f"golden digests were pinned on {pinned['float_build']}, "
                f"this build is {float_build()}"
            )
        assert digests == pinned["digests"]

    def test_lock_step_kernel_matches_reference(self, golden_fleet, sys1_factory):
        jobs, digests = golden_fleet
        traces = execute_jobs_batched(jobs, sys1_factory)
        assert [trace_digest(trace) for trace in traces] == digests

    def test_worker_pool_matches_reference(self, golden_fleet, sys1_factory):
        jobs, digests = golden_fleet
        traces = run_sessions(jobs, workers=2, cache=False, factory=sys1_factory)
        assert [trace_digest(trace) for trace in traces] == digests


def _write_fixture() -> None:
    from repro.defenses.designs import DefenseFactory
    from repro.machine import SYS1

    from .conftest import TEST_SEED

    factory = DefenseFactory(
        SYS1, seed=TEST_SEED, design_overrides={"sysid_intervals": 400}
    )
    payload = {
        "float_build": float_build(),
        "digests": [trace_digest(job.execute(factory)) for job in golden_jobs(factory)],
    }
    FIXTURE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    _write_fixture()
