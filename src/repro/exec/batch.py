"""The lock-step kernel: whole fleets advance bit-identically.

The serial runner (:func:`repro.core.runtime.run_session`) pays the full
Python control-loop cost once per 20 ms interval per session.  Sessions
are mutually independent, so the tick-level physics — which profiling
shows dominates a session — can be evaluated for a whole fleet at once:

* each session keeps its own :class:`~repro.machine.SimulatedMachine`
  (phase cursors, jittered workload, RNG streams), its own defense
  instance and its own RAPL sensor, seeded exactly as the serial runner
  seeds them (:func:`build_fleet`);
* the power model evaluates ``(B, ticks)`` structure-of-arrays blocks
  (:func:`repro.machine.power.batch_window_power`), filtering all AR(1)
  noise rows with one row-wise ``lfilter`` call, and the windowed RAPL
  measurement reduces them row-wise;
* defenses whose settings never change (``Defense.constant_settings``)
  skip the control loop entirely: the whole session is fast-forwarded in
  chunks of :data:`CONST_CHUNK_INTERVALS` intervals (:func:`_run_constant`);
* every other defense decides interval by interval through
  :func:`repro.defenses.decide_batch` (:func:`_run_dynamic`): the mask
  targets are drawn per session, then the Equation-1 update of every Maya
  row sharing a design runs as one vectorized
  :meth:`~repro.control.MatrixController.step_fleet`, whose stacked
  ``np.matmul`` makes per row the same BLAS call as the serial ``M @ x``.

**Per-row termination.**  Each row records exactly what ``run_session``
would record for its job: ``min(duration_s, max_duration_s)`` for a
fixed-duration job, and for a completion-mode job (``duration_s is
None``) ``tail_s`` past the interval after completion, capped at its own
``max_duration_s``.  A row leaves the fleet as soon as its recording
ends, so rows with different caps, completion times and temperature
recording share one batch.

**Bit-identity contract.**  Every per-session random draw happens on that
session's own spawn-keyed stream, in the same within-session order as the
serial runner; a generator fills one size-n request identically to n
sequential draws, row-wise ``lfilter`` carries each row's state exactly
like per-window calls, all batched arithmetic replays the serial
expression order elementwise, and the controller's contractions make per
row the BLAS call the serial step makes.  :meth:`Trace.equals` against
``run_session`` and the golden trace digests are the oracles the tests
enforce.  One site depends on the
numpy build: :func:`_materialize` evaluates a phase's ``np.sin`` over a
whole fast-forwarded span rather than one window (see its docstring).

**Shape contract.**  Rows of one fixed-duration batch with equal caps
return traces of identical shapes, which lets :meth:`TraceCache.put_many
<repro.exec.cache.TraceCache.put_many>` stack them into one packed
``.npz`` entry; ragged batches fall back to per-session entries.
"""

from __future__ import annotations

import math

import numpy as np

from .. import telemetry
from ..core.runtime import _grown
from ..defenses.base import decide_batch
from ..defenses.designs import DefenseFactory
from ..machine import (
    BatchedRaplSensor,
    RaplSensor,
    SimulatedMachine,
    Trace,
    batch_window_power,
    spawn,
)
from ..telemetry import profile
from .jobs import SessionJob

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "batch_key",
    "build_fleet",
    "execute_jobs_batched",
]

#: Most sessions simulated lock-step per chunk.  Large enough
#: to amortize the per-interval numpy dispatch over a typical fleet, small
#: enough that the ``(B, ticks)`` blocks stay cache-resident.
DEFAULT_BATCH_SIZE = 32

#: Initial interval capacity of a completion-mode row's recording buffers
#: (they double on demand up to the row's cap), as in ``run_session``.
_COMPLETION_CAPACITY = 2048

#: Intervals simulated per whole-session chunk of the constant-settings
#: path: bounds the ``(B, ticks)`` working set while keeping the vector
#: lengths long enough to amortize every numpy dispatch.
CONST_CHUNK_INTERVALS = 512


def batch_key(job: SessionJob) -> tuple:
    """Grouping key of jobs that may share one lock-step batch.

    Rows of a batch share the platform and the tick/interval grid; every
    other session parameter (duration, cap, tail, temperature recording,
    defense) is per row.
    """
    return (job.spec, float(job.interval_s), float(job.tick_s))


def build_fleet(
    jobs: "list[SessionJob]", factory: DefenseFactory | None = None
) -> "tuple[list[SimulatedMachine], list, list[RaplSensor]]":
    """Machines, defenses and sensors for ``jobs``, seeded as the serial runner.

    The spawn keys replay ``run_session``'s seeding scheme verbatim, so
    every per-session stream is the one the serial runner would use.
    """
    machines: list[SimulatedMachine] = []
    defenses: list = []
    sensors: list[RaplSensor] = []
    for job in jobs:
        job_factory = job.resolve_factory(factory)
        machine = job.build_machine()
        defense = job_factory.create(job.defense)
        defense_rng = spawn(
            job.seed, "defense", defense.name, machine.workload.name, job.run_id
        )
        defense.prepare(machine, defense_rng)
        sensors.append(
            RaplSensor(
                job.spec,
                spawn(job.seed, "defense-sensor", machine.workload.name, job.run_id),
            )
        )
        machines.append(machine)
        defenses.append(defense)
    return machines, defenses, sensors


def _open_channels(jobs, machines, defenses) -> "list | None":
    """One telemetry channel per session (or ``None`` when recording is off).

    Per-session channels let an interleaved lock-step loop still yield one
    ordered event stream per session — byte-identical to the serial
    runner's, because the channels serialize through the same code path
    with the same values.
    """
    recorder = telemetry.get_recorder()
    if not recorder.enabled:
        return None
    return [
        recorder.session(
            engine="lockstep",
            job_key=job.key(),
            platform=job.spec.name,
            workload=machine.workload.name,
            defense=defense.name,
            seed=job.seed,
            run_id=job.run_id,
            interval_s=job.interval_s,
            duration_s=job.duration_s,
            tick_s=job.tick_s,
            max_duration_s=job.max_duration_s,
            tail_s=job.tail_s,
            record_temperature=job.record_temperature,
        )
        for job, machine, defense in zip(jobs, machines, defenses)
    ]


class _Row:
    """One session of a lock-step fleet, with the serial runner's limits."""

    def __init__(self, job: SessionJob, machine, defense, sensor, channel) -> None:
        self.machine = machine
        self.defense = defense
        self.sensor = sensor
        self.channel = channel
        self.interval_s = job.interval_s
        self.ticks_per_interval = int(round(job.interval_s / machine.tick_s))
        # The arithmetic of run_session: a fixed-duration row records
        # min(duration, cap) intervals; a completion-mode row records up
        # to tail intervals past completion, within the same cap.
        max_intervals = int(round(job.max_duration_s / job.interval_s))
        if job.duration_s is None:
            self.cap = max_intervals
            self.tail: int | None = int(round(job.tail_s / job.interval_s))
        else:
            self.cap = min(int(round(job.duration_s / job.interval_s)), max_intervals)
            self.tail = None
        #: Completion-mode recording deadline, once completion is observed.
        self.deadline: int | None = None
        self.trace: Trace | None = None

    def stop(self) -> int:
        """Intervals this row records, as far as is known now."""
        return self.cap if self.deadline is None else min(self.deadline, self.cap)

    def finish(self, power_w, measured_w, target_w, settings, temperature_c) -> None:
        """Build the row's trace from its recording buffers, cut to length."""
        n_intervals = self.stop()
        n_ticks = n_intervals * self.ticks_per_interval
        machine = self.machine
        self.trace = Trace(
            workload=machine.workload.name,
            platform=machine.spec.name,
            defense=self.defense.name,
            tick_s=machine.tick_s,
            interval_s=self.interval_s,
            power_w=_cut(power_w, n_ticks),
            measured_w=_cut(measured_w, n_intervals),
            target_w=_cut(target_w, n_intervals),
            settings=_cut(settings, n_intervals),
            completed_at_s=machine.completed_at_s,
            temperature_c=(
                _cut(temperature_c, n_ticks) if temperature_c is not None
                else np.empty(0)
            ),
        )


def _cut(buffer: np.ndarray, length: int) -> np.ndarray:
    """The first ``length`` rows of a row's own buffer, copied only if longer.

    An exactly sized buffer becomes the trace array itself; a longer one is
    copied so the trace does not keep the unused tail alive.
    """
    return buffer if buffer.shape[0] == length else buffer[:length].copy()


def execute_jobs_batched(
    jobs: "list[SessionJob]", factory: DefenseFactory | None = None
) -> "list[Trace]":
    """Simulate one lock-step batch, in job order.

    All jobs must share one :func:`batch_key`; the caller (the engine's
    batch grouping) guarantees this.  Every trace is bit-identical to
    ``job.execute()``.  Rows under constant-settings defenses take the
    whole-session fast-forward, the rest the per-interval loop.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if len({batch_key(job) for job in jobs}) != 1:
        raise ValueError("jobs of one batch must share a batch_key")

    with profile.span("fleet.build", sessions=len(jobs)):
        machines, defenses, sensors = build_fleet(jobs, factory)
        channels = _open_channels(jobs, machines, defenses)
    rows = [
        _Row(job, machine, defense, sensor, None if channels is None else channels[i])
        for i, (job, machine, defense, sensor) in enumerate(
            zip(jobs, machines, defenses, sensors)
        )
    ]
    constant = [row for row in rows if row.defense.constant_settings]
    dynamic = [row for row in rows if not row.defense.constant_settings]
    if constant:
        _run_constant(constant)
    if dynamic:
        _run_dynamic(dynamic)
    for channel in channels or ():
        channel.close()
    return [row.trace for row in rows]


# -- dynamic defenses: the per-interval control loop ------------------------


def _run_dynamic(rows: "list[_Row]") -> None:
    """The lock-step twin of :func:`repro.core.runtime.run_session`.

    Each interval checks every row's termination where the serial loop
    does — at the top of the interval — and drops rows whose recording
    has ended, so a retired row's machine, RNG streams and
    ``completed_at_s`` stay exactly where the serial runner leaves them.
    """
    tick_s = rows[0].machine.tick_s
    ticks = rows[0].ticks_per_interval
    recordings = [_Recording(row, ticks) for row in rows]
    settings = [row.defense.initial_settings() for row in rows]
    pending = [row for row in rows if row.tail is not None]
    active = list(range(len(rows)))
    next_stop = 0  # the earliest interval at which an active row may stop
    interval_index = 0
    while True:
        for row in pending:
            if row.machine.completed and interval_index < row.cap:
                row.deadline = interval_index + row.tail
                next_stop = min(next_stop, row.stop())
        pending = [row for row in pending if row.deadline is None]
        if interval_index >= next_stop:
            active = [i for i in active if interval_index < rows[i].stop()]
            if not active:
                break
            next_stop = min(rows[i].stop() for i in active)
            fleet = [rows[i] for i in active]
            fleet_recordings = [recordings[i] for i in active]
            models = [row.machine.power_model for row in fleet]
            fleet_defenses = [row.defense for row in fleet]
            batched_sensor = BatchedRaplSensor([row.sensor for row in fleet])
            activity = np.empty((len(active), ticks))
            core_fraction = np.empty((len(active), ticks))
        applied = [settings[i] for i in active]

        # Kernel spans cover the vectorized hot paths: the phase-cursor
        # walk, the power model (row-wise AR(1) lfilter), the windowed
        # RAPL reduction and the control decision.  They observe
        # wall-clock only and never feed back (MAYA033).
        with profile.span("kernel.fast_forward", interval=interval_index):
            for k, row in enumerate(fleet):
                row.machine.activity_profile(
                    ticks, applied[k], activity[k], core_fraction[k]
                )
        with profile.span("kernel.power", interval=interval_index):
            window_w = batch_window_power(models, activity, core_fraction, applied)
        with profile.span("kernel.measure", interval=interval_index):
            measurements_w = batched_sensor.measure_windows(window_w, tick_s)
        for k, recording in enumerate(fleet_recordings):
            recording.record(
                interval_index,
                window_w[k],
                measurements_w[k],
                fleet_defenses[k].current_target_w,
                applied[k],
            )

        with profile.span("kernel.decide", interval=interval_index):
            decided = decide_batch(fleet_defenses, measurements_w)
        for k, i in enumerate(active):
            settings[i] = decided[k]
            if fleet[k].channel is not None:
                fleet[k].channel.interval(
                    interval_index,
                    recordings[i].target_w[interval_index],
                    recordings[i].measured_w[interval_index],
                    applied[k],
                    fleet_defenses[k],
                )
        interval_index += 1

    for row, recording in zip(rows, recordings):
        row.finish(
            recording.power_w.reshape(-1),
            recording.measured_w,
            recording.target_w,
            recording.settings,
            None if recording.temperature_c is None
            else recording.temperature_c.reshape(-1),
        )


class _Recording:
    """One dynamic row's trace buffers, indexed by interval along axis 0.

    Sized like ``run_session``'s: exactly for a fixed-duration row, and
    doubling up to the cap for a completion-mode row.  Buffers are per row,
    not fleet-wide, so an exactly sized one becomes the trace array itself
    (see :func:`_cut`).
    """

    def __init__(self, row: _Row, ticks: int) -> None:
        capacity = row.cap if row.tail is None else min(row.cap, _COMPLETION_CAPACITY)
        self.cap = row.cap
        self.thermal = row.machine.thermal
        self.tick_s = row.machine.tick_s
        self.power_w = np.empty((capacity, ticks))
        self.temperature_c = (
            np.empty((capacity, ticks)) if self.thermal is not None else None
        )
        self.measured_w = np.empty(capacity)
        self.target_w = np.empty(capacity)
        self.settings = np.empty((capacity, 3))

    def record(self, interval_index, window_w, measured_w, target_w, applied) -> None:
        """Store one interval (growing the buffers first if they are full)."""
        if interval_index == self.measured_w.shape[0]:
            capacity = min(2 * interval_index, self.cap)
            self.power_w = _grown(self.power_w, capacity)
            if self.temperature_c is not None:
                self.temperature_c = _grown(self.temperature_c, capacity)
            self.measured_w = _grown(self.measured_w, capacity)
            self.target_w = _grown(self.target_w, capacity)
            self.settings = _grown(self.settings, capacity)
        self.power_w[interval_index] = window_w
        if self.thermal is not None:
            self.temperature_c[interval_index] = self.thermal.advance(window_w, self.tick_s)
        self.measured_w[interval_index] = measured_w
        self.target_w[interval_index] = target_w
        self.settings[interval_index, 0] = applied.freq_ghz
        self.settings[interval_index, 1] = applied.idle_frac
        self.settings[interval_index, 2] = applied.balloon_level


# -- constant-settings defenses: whole-session fast-forward -----------------


def _run_constant(rows: "list[_Row]") -> None:
    """Whole-session fast path for constant-settings defenses.

    The defense's single actuation triple is known up front, so the
    session evaluates in chunks of up to :data:`CONST_CHUNK_INTERVALS`
    intervals: scalar window-grid bookkeeping per session
    (:class:`_SessionCursor`), then one fleet ``batch_window_power`` and
    one reshaped RAPL reduction per chunk.  AR(1)/thermal state and RNG
    streams carry across chunks exactly as across serial windows.  A chunk
    never runs past any active row's cap, so a row can only overrun its
    recording once it has completed, where the extra ticks are idle
    coasting beyond the recorded slice of its own streams.
    """
    tick_s = rows[0].machine.tick_s
    ticks = rows[0].ticks_per_interval
    settings = [row.defense.initial_settings() for row in rows]
    cursors = [
        _SessionCursor(row.machine, applied) for row, applied in zip(rows, settings)
    ]
    power_chunks: list = [[] for _ in rows]
    measured_chunks: list = [[] for _ in rows]
    temp_chunks: list = [[] for _ in rows]
    quantum_j = RaplSensor.ENERGY_QUANTUM_J
    active = list(range(len(rows)))
    done = 0
    while active:
        n_int = min(CONST_CHUNK_INTERVALS, min(rows[i].stop() for i in active) - done)
        n_ticks = n_int * ticks
        activity = np.empty((len(active), n_ticks))
        core_fraction = np.empty((len(active), n_ticks))
        with profile.span("kernel.fast_forward", intervals=n_int):
            for k, i in enumerate(active):
                spans: list = []
                cursors[i].advance_windows(n_int, ticks, spans)
                _materialize(spans, activity[k], core_fraction[k])

        with profile.span("kernel.power", intervals=n_int):
            window_w = batch_window_power(
                [rows[i].machine.power_model for i in active],
                activity,
                core_fraction,
                [settings[i] for i in active],
            )

        # Whole-chunk RAPL reduction: the reshaped per-interval sums and
        # the bulk per-row noise draws replay the serial per-window calls
        # exactly (reshape-sum and sequential-draw identities).
        with profile.span("kernel.measure", intervals=n_int):
            energy_j = window_w.reshape(len(active), n_int, ticks).sum(axis=2) * tick_s
            energy_j = np.round(energy_j / quantum_j) * quantum_j
            noise_w = np.stack([
                rows[i].sensor._rng.normal(0.0, rows[i].sensor.noise_w, size=n_int)
                for i in active
            ])
            measured_w = energy_j / (ticks * tick_s) + noise_w
        for k, i in enumerate(active):
            row = rows[i]
            power_chunks[i].append(window_w[k])
            measured_chunks[i].append(measured_w[k])
            if row.machine.thermal is not None:
                temp_chunks[i].append(row.machine.thermal.advance(window_w[k], tick_s))
        done += n_int

        for i in active:
            row = rows[i]
            if row.tail is not None and row.deadline is None:
                row.deadline = _deadline_from_completion(
                    cursors[i].completion_tick, ticks, row.tail
                )
        active = [i for i in active if rows[i].stop() > done]

    for i, row in enumerate(rows):
        n_rec = row.stop()
        applied = settings[i]
        target_w = np.full(n_rec, row.defense.current_target_w)
        settings_log = np.empty((n_rec, 3))
        settings_log[:, 0] = applied.freq_ghz
        settings_log[:, 1] = applied.idle_frac
        settings_log[:, 2] = applied.balloon_level
        measured_w = np.concatenate(measured_chunks[i])
        if row.channel is not None:
            for interval_index in range(n_rec):
                row.channel.interval(
                    interval_index,
                    target_w[interval_index],
                    measured_w[interval_index],
                    applied,
                    row.defense,
                )
        row.finish(
            np.concatenate(power_chunks[i]),
            measured_w,
            target_w,
            settings_log,
            np.concatenate(temp_chunks[i]) if temp_chunks[i] else None,
        )


def _deadline_from_completion(
    completion_tick: "int | None", ticks_per_interval: int, tail_intervals: int
) -> "int | None":
    """The serial loop's recording deadline implied by a completion tick.

    The serial runner observes ``machine.completed`` at the *top* of the
    interval after the one during which completion occurred, and records
    ``tail_s`` worth of intervals from there.
    """
    if completion_tick is None:
        return None
    completed_interval = (completion_tick - 1) // ticks_per_interval
    return completed_interval + 1 + tail_intervals


class _SessionCursor:
    """Scalar replay of ``SimulatedMachine.activity_profile`` bookkeeping.

    Advances the machine's phase cursors on the serial runner's window grid
    with its exact float operations — same expressions, same order — but
    *defers* the per-tick work-time grids and activity evaluation,
    recording ``(phase, bases, work_per_tick, seg_ticks)`` span descriptors
    for :func:`_materialize`.  Runs of whole windows that one phase fully
    survives are fast-forwarded through ``np.add.accumulate``, which is a
    strict sequential left fold — the per-window ``+= work_per_tick *
    window_ticks`` chain lands on bit-identical values — so segmentation
    decisions, ``time_s`` and ``completed_at_s`` all match the serial
    runner exactly.  (Sole exception: ``time_s`` *after* workload
    completion advances in one bulk add; a completed machine's coasting
    clock is unobservable — ``completed_at_s`` is already frozen and
    traces never record ``time_s``.)
    """

    def __init__(self, machine, settings) -> None:
        self.machine = machine
        self.freq_fraction = settings.freq_ghz / machine.spec.freq_max_ghz
        self.idle_frac = settings.idle_frac
        self.balloon_level = settings.balloon_level
        #: 1-based global tick count at workload completion (None = running).
        self.completion_tick: int | None = None
        self._global_tick = 0
        self._rate_phase_index = -1
        self._work_per_tick = 0.0

    def advance_windows(self, n_windows: int, window_ticks: int, spans: list) -> None:
        machine = self.machine
        tick_s = machine.tick_s
        phases = machine.workload.phases
        n_phases = len(phases)
        windows_left = n_windows
        offset = 0  # ticks already consumed in the current window
        while windows_left > 0:
            if machine._phase_index >= n_phases:
                coast_ticks = windows_left * window_ticks - offset
                spans.append((None, None, 0.0, coast_ticks))
                machine.time_s += coast_ticks * tick_s
                self._global_tick += coast_ticks
                return
            if self._rate_phase_index != machine._phase_index:
                # The serial loop recomputes the rate every window; it is a
                # pure function of the phase and the constant settings, so
                # caching it per phase entry reuses the identical value.
                phase = phases[machine._phase_index]
                rate = phase.progress_rate(
                    self.freq_fraction, self.idle_frac, self.balloon_level
                )
                if not (rate > 0.0) or not math.isfinite(rate):
                    rate = 1e-6
                self._work_per_tick = rate * tick_s
                self._rate_phase_index = machine._phase_index
            phase = phases[machine._phase_index]
            work_per_tick = self._work_per_tick
            work_units = phase.work_units
            work_remaining = work_units - machine._work_into_phase
            ticks_in_phase = math.ceil(work_remaining / work_per_tick - 1e-12)

            if offset == 0 and windows_left > 1 and ticks_in_phase > window_ticks:
                # Fast-forward the run of whole windows this phase fully
                # survives.  ``wips[j]`` is the fold of j per-window
                # ``+= work_per_tick * window_ticks`` updates — the exact
                # values the serial per-window loop would store.
                increments = np.empty(windows_left + 1)
                increments[0] = machine._work_into_phase
                increments[1:] = work_per_tick * window_ticks
                wips = np.add.accumulate(increments)
                needed = np.ceil((work_units - wips[:-1]) / work_per_tick - 1e-12)
                survives = (needed > window_ticks) & (wips[1:] < work_units - 1e-9)
                n_run = int(np.argmin(survives)) if not survives.all() else windows_left
                if n_run > 0:
                    spans.append((phase, wips[:n_run], work_per_tick, window_ticks))
                    machine._work_into_phase = float(wips[n_run])
                    folded = np.empty(n_run + 1)
                    folded[0] = machine.work_done
                    folded[1:] = work_per_tick * window_ticks
                    machine.work_done = float(np.add.accumulate(folded)[-1])
                    folded[0] = machine.time_s
                    folded[1:] = window_ticks * tick_s
                    machine.time_s = float(np.add.accumulate(folded)[-1])
                    self._global_tick += n_run * window_ticks
                    windows_left -= n_run
                    continue

            ticks_left = window_ticks - offset
            seg_ticks = min(ticks_left, max(ticks_in_phase, 1))
            spans.append(
                (phase, (machine._work_into_phase,), work_per_tick, seg_ticks)
            )
            advanced_work = work_per_tick * seg_ticks
            machine._work_into_phase += advanced_work
            machine.work_done += advanced_work
            machine.time_s += seg_ticks * tick_s
            self._global_tick += seg_ticks
            offset += seg_ticks
            if offset == window_ticks:
                offset = 0
                windows_left -= 1
            if machine._work_into_phase >= work_units - 1e-9:
                machine._work_into_phase = 0.0
                machine._phase_index += 1
                if machine._phase_index >= n_phases and not math.isfinite(
                    machine.completed_at_s
                ):
                    machine.completed_at_s = machine.time_s
                    self.completion_tick = self._global_tick


def _materialize(spans: list, activity_out: np.ndarray, core_out: np.ndarray) -> None:
    """Evaluate deferred span descriptors into per-tick profiles.

    Each span holds equal-length segments of one phase at one
    ``work_per_tick`` (a fast-forwarded window run, or a single partial
    window): the per-tick ``k`` indices and ``wip + wpt*k`` work times
    reproduce the serial per-window expressions elementwise.

    **The one numpy-build-dependent site.**  ``phase.activity_at`` runs its
    ``np.sin`` over the whole span instead of one window at a time.
    Elementwise ``np.sin`` is the same correctly-rounded-or-not kernel at
    every array length on the builds this project tests, so the values
    match the serial runner bit for bit; a numpy build whose SIMD sin
    rounds differently by vector length would break bit-identity here and
    nowhere else (the bit-identity tests would catch it).
    """
    position = 0
    for phase, bases, work_per_tick, seg_ticks in spans:
        if phase is None:
            activity_out[position:position + seg_ticks] = 0.0
            core_out[position:position + seg_ticks] = 0.0
            position += seg_ticks
            continue
        bases = np.asarray(bases, dtype=np.float64)
        total = bases.size * seg_ticks
        offsets = np.repeat(bases, seg_ticks)
        # k replays (np.arange(seg_ticks) + 1.0) per segment; the tick
        # indices are exact in float64, so work_times is bit-identical
        # to the serial `wip + wpt * (arange + 1.0)`.
        k = np.tile(np.arange(seg_ticks, dtype=np.float64) + 1.0, bases.size)
        work_times = offsets + work_per_tick * k
        activity_out[position:position + total] = phase.activity_at(work_times)
        core_out[position:position + total] = phase.core_fraction
        position += total
