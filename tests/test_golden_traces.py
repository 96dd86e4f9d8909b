"""Golden trace digests: the bit-identity oracle pinned in the repository.

Every execution path must produce the traces of a one-row call
(``SessionJob.execute``).  The other tests compare paths against each
other at run time; this module also pins the one-row traces themselves,
as one sha256 per session of a small mixed fleet and one of a
``run_session`` call under a defense no factory builds, so a kernel
refactor that changed *every* path the same way still fails.  The
digests were computed by the serial Figure-2 loop the kernel replaced.

Three more entries pin state that outlives a trace.  Every mask family's
target stream is pinned per seed, with the generator state it ends in,
as drawn one ``next_target()`` at a time.  Three back-to-back
``run_session`` calls on one machine pin the power-noise state a reused
machine carries from one session into the next (the kernel draws noise
ahead in blocks and must rewind what a stopped row did not consume).
Both were computed by the per-sample loops before the block draws.  Two
calls on one ``loop_imul`` machine under ``baseline``, computed through
the per-interval loop, pin the noise state, RNG position and clock a
completion-mode row leaves when the constant-settings fast-forward
completes it inside a chunk.

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
#: last four rows cover a short fixed duration, run-to-completion with a
#: tail, temperature recording and a run-to-completion session that its
#: ``max_duration_s`` cuts off before the workload completes.
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
    ("water_nsquared", "maya_gs", {
        "duration_s": None, "max_duration_s": 0.6, "tail_s": 0.5,
    }),
)

#: Index of the golden row that hits its ``max_duration_s`` uncompleted.
CAPPED_ROW = len(GOLDEN_ROWS) - 1

#: Seeds and length of each mask family's pinned target stream.
MASK_SEEDS = (0, 1, 2)
MASK_SAMPLES = 3000
MASK_RANGE_W = (10.0, 40.0)

#: Session limits of the back-to-back ``run_session`` calls on one machine:
#: run to completion, a fixed second on the finished machine, and run to
#: completion again (which then records only the tail).
REUSED_CALLS = (
    {"duration_s": None, "max_duration_s": 60.0, "tail_s": 0.5},
    {"duration_s": 1.0},
    {"duration_s": None, "max_duration_s": 60.0, "tail_s": 0.3},
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


def naive_session():
    """One ``run_session`` call under a defense no factory builds.

    :class:`~repro.experiments.fig03_naive_control.NaiveDefense` has no
    design name, so this session can only run through ``run_session``.
    """
    from repro.core.runtime import make_machine, run_session
    from repro.experiments.fig03_naive_control import NaiveDefense
    from repro.machine import SYS1
    from repro.workloads import parsec_program

    run_id = ("golden", "naive")
    machine = make_machine(SYS1, parsec_program("bodytrack"), seed=7, run_id=run_id)
    return run_session(machine, NaiveDefense(20.0), seed=7, run_id=run_id, duration_s=1.0)


def mask_streams() -> dict:
    """Per mask family and seed: sha256 of the targets and the final RNG state.

    Each stream is ``MASK_SAMPLES`` one-at-a-time ``next_target()`` calls
    on a fresh mask; the generator state is what the mask leaves in its
    stream after them.
    """
    from repro.machine import spawn
    from repro.masks import MASK_FAMILIES, make_mask

    streams = {}
    for family in MASK_FAMILIES:
        for seed in MASK_SEEDS:
            rng = spawn(seed, "golden-mask", family)
            mask = make_mask(family, MASK_RANGE_W, rng)
            targets_w = [mask.next_target() for _ in range(MASK_SAMPLES)]
            streams[f"{family}/{seed}"] = {
                "targets": hashlib.sha256(
                    np.array(targets_w, dtype="<f8").tobytes()
                ).hexdigest(),
                "state": rng.bit_generator.state,
            }
    return streams


def reused_machine_sessions(factory) -> "list[dict]":
    """Trace digest and carried AR(1) noise level after each reused-machine call.

    One ``water_nsquared`` machine runs the :data:`REUSED_CALLS` sessions
    under ``maya_gs`` back to back, so each call starts from the power
    noise state and RNG position the previous one left.
    """
    from repro.core.runtime import make_machine, run_session
    from repro.machine import SYS1
    from repro.workloads import parsec_program

    machine = make_machine(
        SYS1, parsec_program("water_nsquared"), seed=7, run_id=("golden", "reused")
    )
    sessions = []
    for call, limits in enumerate(REUSED_CALLS):
        trace = run_session(
            machine, factory.create("maya_gs"), seed=7,
            run_id=("golden", "reused", call), **limits,
        )
        sessions.append({
            "trace": trace_digest(trace),
            "noise_state": float(machine.power_model._noise_state).hex(),
        })
    return sessions


#: Session limits of the two calls on one ``loop_imul`` machine under
#: ``baseline``: run to completion with a short tail (the workload completes
#: early in a fast-forward chunk), then a fixed half second on the finished
#: machine, which starts from the noise state and clock the first call left.
RUN_ON_CALLS = (
    {"duration_s": None, "max_duration_s": 2.0, "tail_s": 0.1},
    {"duration_s": 0.5},
)


def run_on_sessions(factory, looped: bool) -> "list[dict]":
    """Trace digest, carried AR(1) level, RNG position and clock after each call.

    The machine runs the :data:`RUN_ON_CALLS` sessions under ``baseline``
    back to back.  ``looped`` takes the per-interval loop (the defense
    decides every interval, as the bench's reference leg forces it);
    otherwise the constant-settings fast-forward runs, which must leave the
    machine where the loop leaves it.
    """
    from repro.core.runtime import run_session
    from repro.defenses import Baseline

    machine = SessionJob.for_factory(
        factory, workload="loop_imul", workload_kwargs={"duration_s": 0.5},
        defense="baseline", seed=7, run_id=("golden", "run-on"), duration_s=None,
    ).build_machine()
    sessions = []
    for call, limits in enumerate(RUN_ON_CALLS):
        defense = Baseline()
        if looped:
            defense.constant_settings = False
        trace = run_session(
            machine, defense, seed=7, run_id=("golden", "run-on", call), **limits
        )
        model = machine.power_model
        sessions.append({
            "trace": trace_digest(trace),
            "noise_state": float(model._noise_state).hex(),
            "rng_state": hashlib.sha256(
                repr(model._rng.bit_generator.state).encode()
            ).hexdigest(),
            "time_s": float(machine.time_s).hex(),
        })
    return sessions


def controller_step_digest(design) -> str:
    """sha256 over one-row Equation-1 steps from seeded controller states.

    Eight controllers start with their commands inside the box, at either
    rail and mixed; each takes 60 steps against measurements near, level
    with, far above and far below a random target.  The digest covers
    every step's settings and the state and counters it leaves, so a
    one-ulp drift in any contraction changes it even where quantization
    hides the drift from a whole trace.
    """
    from repro.control import MatrixController
    from repro.machine import SYS1, ActuatorBank

    digest = hashlib.sha256()
    for k in range(8):
        rng = np.random.default_rng([7, k])
        controller = MatrixController(design.controller, ActuatorBank(SYS1))
        controller._x_pred = rng.normal(0.0, 1.0, controller._x_pred.size)
        controller._z = float(rng.normal(0.0, 5.0))
        commands = (
            rng.uniform(0.0, 1.0, 3), np.zeros(3), np.ones(3), rng.choice([0.0, 1.0], 3)
        )
        controller._u_applied = commands[k % 4] - controller._u_op
        for step in range(60):
            target_w = float(rng.uniform(5.0, 35.0))
            offsets = (float(rng.normal(0.0, 5.0)), 0.0, 150.0, -150.0)
            settings = controller.step(target_w, target_w + offsets[(k + step) % 4])
            values = [settings.freq_ghz, settings.idle_frac, settings.balloon_level,
                      controller._z, *controller._x_pred, *controller._u_applied]
            digest.update(np.array(values, dtype="<f8").tobytes())
            digest.update(repr(sorted(controller.diagnostics().items())).encode())
    return digest.hexdigest()


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
        capped = jobs[CAPPED_ROW]
        assert capped.duration_s is None and capped.max_duration_s < 1.0

    def test_capped_session_stops_uncompleted(self, golden_fleet, sys1_factory):
        jobs, _ = golden_fleet
        trace = jobs[CAPPED_ROW].execute(sys1_factory)
        assert np.isnan(trace.completed_at_s)
        assert trace.measured_w.size == 30

    def test_reference_matches_pinned_digests(self, golden_fleet):
        _, digests = golden_fleet
        pinned = json.loads(FIXTURE.read_text())
        if pinned["float_build"] != float_build():
            pytest.skip(
                f"golden digests were pinned on {pinned['float_build']}, "
                f"this build is {float_build()}"
            )
        assert digests == pinned["digests"]

    def test_controller_steps_match_pinned_digest(self, sys1_design):
        pinned = json.loads(FIXTURE.read_text())
        if pinned["float_build"] != float_build():
            pytest.skip(f"golden digests were pinned on {pinned['float_build']}")
        assert controller_step_digest(sys1_design) == pinned["controller_steps"]

    def test_run_session_matches_pinned_digest(self):
        pinned = json.loads(FIXTURE.read_text())
        if pinned["float_build"] != float_build():
            pytest.skip(f"golden digests were pinned on {pinned['float_build']}")
        assert trace_digest(naive_session()) == pinned["naive_run_session"]

    def test_mask_streams_match_pinned_digests(self):
        pinned = json.loads(FIXTURE.read_text())
        if pinned["float_build"] != float_build():
            pytest.skip(f"golden digests were pinned on {pinned['float_build']}")
        # Compared in the JSON form the fixture pins.
        assert json.loads(json.dumps(mask_streams())) == pinned["mask_streams"]

    def test_reused_machine_matches_pinned_digests(self, sys1_factory):
        pinned = json.loads(FIXTURE.read_text())
        if pinned["float_build"] != float_build():
            pytest.skip(f"golden digests were pinned on {pinned['float_build']}")
        assert reused_machine_sessions(sys1_factory) == pinned["reused_machine"]

    @pytest.mark.parametrize("looped", [True, False], ids=["interval-loop", "fast-forward"])
    def test_run_on_machine_matches_pinned_digests(self, sys1_factory, looped):
        # The fixture was computed through the per-interval loop; the
        # fast-forward must leave a completed row's machine where its
        # recording ends, not at the end of its chunk.
        pinned = json.loads(FIXTURE.read_text())
        if pinned["float_build"] != float_build():
            pytest.skip(f"golden digests were pinned on {pinned['float_build']}")
        assert run_on_sessions(sys1_factory, looped) == pinned["run_on"]

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
        "naive_run_session": trace_digest(naive_session()),
        "controller_steps": controller_step_digest(
            factory.maya_design("gaussian_sinusoid")
        ),
        "mask_streams": mask_streams(),
        "reused_machine": reused_machine_sessions(factory),
        "run_on": run_on_sessions(factory, looped=True),
    }
    FIXTURE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    _write_fixture()
