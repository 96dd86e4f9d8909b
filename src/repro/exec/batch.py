"""The lock-step kernel: the one Figure-2 control loop.

Every simulated session runs here.  :func:`repro.core.runtime.run_session`
is a one-row call and :func:`repro.exec.run_sessions` feeds whole chunks
of jobs.  Sessions are mutually independent, so the tick-level physics --
which profiling shows dominates a session -- is evaluated for a whole
fleet at once:

* each session keeps its own :class:`~repro.machine.SimulatedMachine`
  (phase cursors, jittered workload, RNG streams), its own defense
  instance and its own RAPL sensor, seeded from its spawn keys
  (:class:`SessionRow`);
* the power step (:func:`repro.machine.power.batch_window_power`) and
  the RAPL read (:func:`repro.machine.sensors.measure_windows`) evaluate
  ``(B, ticks)`` structure-of-arrays blocks and reduce the windows
  row-wise; their noise comes from :func:`repro.machine.power.draw_noise`,
  which filters the AR(1) noise with one exact first-order recursion;
* defenses whose settings never change (``Defense.constant_settings``)
  skip the control loop entirely: the whole session is fast-forwarded in
  chunks of :data:`CONST_CHUNK_INTERVALS` intervals (:func:`_run_constant`);
* every other defense decides interval by interval (:func:`_run_dynamic`)
  after one fleet pass of the phase cursors
  (:func:`repro.machine.activity_profiles`, or a
  :class:`~repro.machine.CursorFleet` on a wide fleet).  One
  :class:`~repro.defenses.DefenseFleet` serves the whole call: it keeps
  the Equation-1 state of every Maya row sharing a design in one
  :class:`~repro.control.ControllerFleet`, whose stacked ``np.matmul``
  makes per row the BLAS call of a one-row ``M @ x``.  The settings
  travel as one ``(B, 3)`` level array.  What the loop never feeds back
  -- mask targets, power noise, RAPL counter noise -- is drawn per row
  :data:`BLOCK_INTERVALS` intervals ahead (:class:`_Block`).

**Narrow fleets.**  A dynamic fleet of a few rows (Fig. 11's one row,
Fig. 14's four Maya rows, every ``run_session``) pays per interval a fixed
cost per numpy call rather than a cost per row, so each phase keeps its
call count small: the controller step gathers what it needs of each
row's applied command from per-command tables and quantizes with one
comparison against exact thresholds (DESIGN.md §7), a
:class:`~repro.defenses.DefenseFleet` whose one Maya group holds every
row steps it without scattering, and the power step builds its
operating points in one pass.  None of this changes an operation on a
value.

**Wide fleets.**  While a dynamic fleet has at least
:data:`WIDE_FLEET_ROWS` active rows, its interval takes no Python step per
row: a :class:`~repro.machine.CursorFleet` replaces the per-machine
cursor walk, :class:`~repro.machine.OperatingPoints` tables replace the
per-row operating-point lookups of the power step, and each block's AR(1)
noise is filtered time-major.  The cursor fleet owns every row's phase
index, work into the phase, work done, ``time_s`` and ``completed_at_s``
while the fleet is wide; it writes them back to the machines only when a
row retires, when the fleet turns narrow and at the end of the call, and
completion is detected from its arrays.  Every table entry is computed
once by the scalar code it stands for (``Phase.frequency_speedup``,
``PowerModel.dvfs_scale``, ``static_power``, ``idle_scale``).  The path
is chosen each time the loop rebuilds its active fleet; the fleet only
shrinks, so it turns narrow at most once, and narrow fleets run the
per-row code, which stays the oracle.
The constant-settings fast-forward applies the same rule to its chunks'
AR(1) noise: time-major while at least :data:`WIDE_FLEET_ROWS` rows are
active.

**Per-row termination.**  A fixed-duration row records
``min(duration_s, max_duration_s)``; a completion-mode row (``duration_s
is None``) records ``tail_s`` past the interval after completion, capped
at its own ``max_duration_s``.  A row leaves the fleet as soon as its
recording ends, so rows with different caps, completion times and
temperature recording share one batch.

**Row independence.**  Every per-session random draw happens on that
session's own spawn-keyed stream, in the same within-session order at
any fleet size; a generator fills one size-n request identically to n
sequential draws, no row of the power, RAPL and controller steps depends
on another, and the AR(1) recursion carries each row's state across a
multi-window block exactly like per-window calls, row by row or
time-major.  So drawing a block of noise or mask targets ahead equals
drawing it interval by interval, and the constant-settings path's
multi-window RAPL reduction replays the per-window sums.  A row whose
recording ends before what was drawn ahead for it (a completion-mode row
whose deadline falls inside a dynamic block or a constant-settings
chunk) takes one retire step, :func:`_rewind_noise`: its power model's
bit-generator state and carried AR(1) level go back to where the draw
began and only the intervals it ran are redrawn, so a reused machine
enters its next session with the state a per-interval draw would leave;
the mask and sensor streams belong to the session and are dropped with
it.  So each row of a B-row call equals a one-row call, and the
constant-settings fast-forward equals the per-interval loop.  The golden
trace digests (``tests/test_golden_traces.py``) pin the absolute bits.
Three sites depend on the numpy build in the same way: :func:`_materialize`
and the fleet phase cursor (``activity_profiles``, or the same evaluation
in ``CursorFleet``) evaluate a phase's ``np.sin`` over a stacked array
rather than one window of one row, and a mask evaluates its sinusoid over
a whole segment rather than one sample (DESIGN.md §7 names all three).

**Shape contract.**  Rows of one fixed-duration batch with equal caps
return traces of identical shapes, which lets :meth:`TraceCache.put_many
<repro.exec.cache.TraceCache.put_many>` stack them into one pack; a
ragged (completion-mode) batch is written as one pack per shape.
"""

from __future__ import annotations

import math

import numpy as np

from .. import telemetry
from ..defenses.base import Defense
from ..defenses.designs import DefenseFactory, DefenseFleet
from ..machine import (
    ActuatorSettings,
    CursorFleet,
    OperatingPoints,
    RaplSensor,
    SimulatedMachine,
    Trace,
    activity_profiles,
    batch_window_power,
    draw_noise,
    measure_windows,
    spawn,
)
from ..telemetry import profile
from .jobs import SessionJob

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "SessionRow",
    "batch_key",
    "build_fleet",
    "execute_jobs_batched",
    "simulate",
]

#: Most sessions simulated lock-step per chunk.  Large enough
#: to amortize the per-interval numpy dispatch over a typical fleet and to
#: keep a figure's 40-run collections in one wide chunk, small enough that
#: the ``(B, ticks)`` blocks stay cache-resident.  On a 2-core host 48
#: ran default-scale Fig. 6 and Fig. 7 faster than 32, and as fast as 64.
DEFAULT_BATCH_SIZE = 48

#: Initial interval capacity of a completion-mode row's recording buffers
#: (they double on demand up to the row's cap).
_COMPLETION_CAPACITY = 2048

#: Fewest active rows of a dynamic fleet that run its interval as fleet
#: passes (:class:`~repro.machine.CursorFleet`, level-indexed operating
#: points, time-major AR(1) noise) rather than per-row Python: the measured
#: crossover of the two paths' per-interval cost.  A constant-settings
#: chunk with this many active rows filters its noise time-major too.
WIDE_FLEET_ROWS = 12

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


class SessionRow:
    """One session of a lock-step fleet: machine, defense, sensor, limits.

    Construction binds ``defense`` to ``machine`` and builds the defense's
    RAPL sensor, each on the session's own spawn-keyed stream, and opens
    the session's telemetry channel when recording is on (``job_key``
    binds its manifest to a job's content address).
    """

    def __init__(
        self,
        machine: SimulatedMachine,
        defense: Defense,
        *,
        seed: int,
        run_id: object,
        interval_s: float,
        duration_s: "float | None",
        max_duration_s: float,
        tail_s: float,
        job_key: "str | None" = None,
    ) -> None:
        max_intervals = int(round(max_duration_s / interval_s))
        if duration_s is None:
            self.cap = max_intervals
            self.tail: int | None = int(round(tail_s / interval_s))
        else:
            n_intervals = int(round(duration_s / interval_s))
            if n_intervals < 1:
                raise ValueError("duration_s shorter than one interval")
            self.cap = min(n_intervals, max_intervals)
            self.tail = None
        workload = machine.workload.name
        defense.prepare(machine, spawn(seed, "defense", defense.name, workload, run_id))
        self.sensor = RaplSensor(machine.spec, spawn(seed, "defense-sensor", workload, run_id))
        self.machine = machine
        self.defense = defense
        self.interval_s = interval_s
        self.ticks_per_interval = int(round(interval_s / machine.tick_s))
        #: Completion-mode recording deadline, once completion is observed.
        self.deadline: int | None = None
        self.trace: Trace | None = None
        recorder = telemetry.get_recorder()
        self.channel = (
            recorder.session(
                job_key=job_key,
                platform=machine.spec.name,
                workload=workload,
                defense=defense.name,
                seed=seed,
                run_id=run_id,
                interval_s=interval_s,
                duration_s=duration_s,
                tick_s=machine.tick_s,
                max_duration_s=max_duration_s,
                tail_s=tail_s,
                record_temperature=machine.record_temperature,
            )
            if recorder.enabled
            else None
        )

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


def build_fleet(
    jobs: "list[SessionJob]", factory: DefenseFactory | None = None
) -> "list[SessionRow]":
    """One :class:`SessionRow` per job, seeded as the job describes."""
    keyed = telemetry.enabled()
    rows = []
    for job in jobs:
        defense = job.resolve_factory(factory).create(job.defense)
        rows.append(SessionRow(
            job.build_machine(),
            defense,
            seed=job.seed,
            run_id=job.run_id,
            interval_s=job.interval_s,
            duration_s=job.duration_s,
            max_duration_s=job.max_duration_s,
            tail_s=job.tail_s,
            job_key=job.key() if keyed else None,
        ))
    return rows


def execute_jobs_batched(
    jobs: "list[SessionJob]", factory: DefenseFactory | None = None
) -> "list[Trace]":
    """Simulate one lock-step batch of jobs, in job order.

    All jobs must share one :func:`batch_key`; the caller (the engine's
    batch grouping) guarantees this.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if len({batch_key(job) for job in jobs}) != 1:
        raise ValueError("jobs of one batch must share a batch_key")
    with profile.span("fleet.build", sessions=len(jobs)):
        rows = build_fleet(jobs, factory)
    return simulate(rows)


def simulate(rows: "list[SessionRow]") -> "list[Trace]":
    """Run every row's session lock-step and return the traces in row order.

    Rows must share the platform and the tick/interval grid.  Rows under
    constant-settings defenses take the whole-session fast-forward, the
    rest the per-interval loop.
    """
    constant = [row for row in rows if row.defense.constant_settings]
    dynamic = [row for row in rows if not row.defense.constant_settings]
    if constant:
        _run_constant(constant)
    if dynamic:
        _run_dynamic(dynamic)
    for row in rows:
        if row.channel is not None:
            row.channel.close()
    return [row.trace for row in rows]


# -- dynamic defenses: the per-interval control loop ------------------------


def _run_dynamic(rows: "list[SessionRow]") -> None:
    """The Figure-2 loop: run, measure, decide, once per interval.

    Every interval the machines run with their current settings, the
    sensors report each window's power and the defenses decide the
    settings of the next interval.  One :class:`~repro.defenses.DefenseFleet`
    serves the whole call, and the settings travel as one ``(B, 3)`` level
    array.  What the loop never feeds back -- mask targets, power noise
    and RAPL counter noise -- is drawn a :class:`_Block` of intervals
    ahead, and each interval is staged with one slice write per block
    buffer; the block is copied into the rows' own buffers when it ends.
    A fleet of at least :data:`WIDE_FLEET_ROWS` active rows advances its
    cursors, looks up its operating points and filters its noise as fleet
    passes (module docstring, "Wide fleets").

    Each interval checks every row's termination at its top and drops rows
    whose recording has ended, so a retired row's machine, RNG streams and
    ``completed_at_s`` stay where its own recording left them: a row that
    stops inside a block rewinds its power model to the block's start and
    redraws only the intervals it ran.
    """
    tick_s = rows[0].machine.tick_s
    ticks = rows[0].ticks_per_interval
    # Supplies the operating-point scalars, a function of the platform.
    model = rows[0].machine.power_model
    recordings = [_Recording(row, ticks) for row in rows]
    pending = [i for i, row in enumerate(rows) if row.tail is not None]
    active = list(range(len(rows)))
    decisions = DefenseFleet([row.defense for row in rows])
    levels = decisions.levels
    # A wide fleet's phase cursors and operating-point tables.
    cursors: "CursorFleet | None" = None
    points: "OperatingPoints | None" = None
    block: "_Block | None" = None
    next_stop = 0  # the earliest interval at which an active row may stop
    interval_index = 0
    span = profile.get_profiler().span
    while True:
        if pending:
            if cursors is None:
                done = [i for i in pending if rows[i].machine.completed]
            else:
                completed = cursors.completed
                done = [i for i in pending if completed[position[i]]]
            if done:
                for i in done:
                    row = rows[i]
                    if interval_index < row.cap:
                        row.deadline = interval_index + row.tail
                        next_stop = min(next_stop, row.stop())
                pending = [i for i in pending if i not in done]
        if interval_index >= next_stop:
            kept = []
            for k, i in enumerate(active):
                if interval_index < rows[i].stop():
                    kept.append(k)
                elif block is not None:
                    block.retire(k, recordings[i], interval_index)
            if len(kept) < len(active):
                if block is not None:
                    block.keep(kept)
                decisions.keep(kept)
                if cursors is not None:
                    cursors.keep(kept)
                levels = decisions.levels
                active = [active[k] for k in kept]
            if not active:
                break
            next_stop = min(rows[i].stop() for i in active)
            fleet = [rows[i] for i in active]
            machines = [row.machine for row in fleet]
            recorded = [k for k, row in enumerate(fleet) if row.channel is not None]
            position = {i: k for k, i in enumerate(active)}
            pending = [i for i in pending if i in position]
            # The fleet only shrinks, so it turns narrow at most once.
            wide = len(active) >= WIDE_FLEET_ROWS
            if wide and cursors is None:
                cursors = CursorFleet(machines)
                points = OperatingPoints(model)
            elif not wide and cursors is not None:
                cursors.write_back()
                cursors = points = None
            activity = np.empty((len(active), ticks))
            core_fraction = np.empty((len(active), ticks))
        if block is None or interval_index == block.end:
            if block is not None:
                for k, i in enumerate(active):
                    block.flush(k, recordings[i], block.length)
            block = _Block(
                fleet, interval_index, min(BLOCK_INTERVALS, next_stop - interval_index), wide
            )
        column = interval_index - block.start

        # Kernel spans cover the vectorized hot paths: the phase-cursor
        # walk, the power model, the windowed RAPL reduction and the
        # control decision; the first interval of a block also draws that
        # block's power noise, counter noise and mask targets in the
        # matching span.  They observe wall-clock only and never feed back
        # (MAYA033).
        with span("kernel.fast_forward", interval=interval_index):
            if cursors is None:
                activity_profiles(machines, ticks, levels, activity, core_fraction)
            else:
                cursors.advance(ticks, levels, activity, core_fraction)
        with span("kernel.power", interval=interval_index):
            if column == 0:
                block.draw_power_noise()
            window_w = batch_window_power(
                model, activity, core_fraction, levels, block.power_noise_w[:, column], points
            )
        with span("kernel.measure", interval=interval_index):
            if column == 0:
                block.draw_counter_noise()
            measured_w = measure_windows(
                window_w, tick_s, block.counter_noise_w[:, column]
            )
        block.power_w[:, column] = window_w
        block.measured_w[:, column] = measured_w
        block.target_w[:, column] = decisions.targets_w
        block.levels[:, column] = levels

        with span("kernel.decide", interval=interval_index):
            if column == 0:
                decisions.draw(block.length)
            decided = decisions.decide(measured_w)
        if recorded:
            decisions.write_back(recorded)
            for k in recorded:
                fleet[k].channel.interval(
                    interval_index,
                    block.target_w[k, column],
                    block.measured_w[k, column],
                    ActuatorSettings(*levels[k].tolist()),
                    fleet[k].defense,
                )
        levels = decided
        interval_index += 1

    for row, recording in zip(rows, recordings):
        power_w = recording.power_w.reshape(-1)
        thermal = row.machine.thermal
        row.finish(
            power_w,
            recording.measured_w,
            recording.target_w,
            recording.settings,
            # The thermal node never feeds back, so it runs once over the
            # recorded ticks (its recursion splits exactly).
            None if thermal is None
            else thermal.advance(power_w[: row.stop() * ticks], tick_s),
        )


#: Intervals a dynamic fleet draws ahead per :class:`_Block`: long enough to
#: amortize each session's draws over many intervals, short enough that a
#: row stopping inside a block redraws little.
BLOCK_INTERVALS = 64


class _Block:
    """Up to :data:`BLOCK_INTERVALS` intervals of a dynamic fleet.

    Holds, per active row, the power and counter noise drawn ahead for the
    block (in the block's first interval, before any row can retire) and
    the staging buffers each interval writes one column of.  No block runs
    past an active row's known stop, so only a row whose completion
    deadline falls inside the block stops early.
    """

    def __init__(
        self, fleet: "list[SessionRow]", start: int, length: int, wide: bool
    ) -> None:
        ticks = fleet[0].ticks_per_interval
        self.start = start
        self.length = length
        self.end = start + length
        self.wide = wide
        self.models = [row.machine.power_model for row in fleet]
        self.sensors = [row.sensor for row in fleet]
        n_rows = len(fleet)
        self.power_w = np.empty((n_rows, length, ticks))
        self.measured_w = np.empty((n_rows, length))
        self.target_w = np.empty((n_rows, length))
        self.levels = np.empty((n_rows, length, 3))

    def draw_power_noise(self) -> None:
        """Draw every row's process noise for the block, saving where it began."""
        self._saved = [_noise_mark(model) for model in self.models]
        ticks = self.power_w.shape[2]
        power_noise_w, _ = draw_noise(
            self.models, [], self.length, ticks, time_major=self.wide
        )
        self.power_noise_w = power_noise_w.reshape(len(self.models), self.length, ticks)

    def draw_counter_noise(self) -> None:
        """Draw every row's RAPL counter noise for the block."""
        _, self.counter_noise_w = draw_noise([], self.sensors, self.length, 0)

    def flush(self, k: int, recording: "_Recording", n_intervals: int) -> None:
        """Copy row ``k``'s first ``n_intervals`` staged intervals to its buffers."""
        recording.store(
            self.start,
            self.power_w[k, :n_intervals],
            self.measured_w[k, :n_intervals],
            self.target_w[k, :n_intervals],
            self.levels[k, :n_intervals],
        )

    def retire(self, k: int, recording: "_Recording", interval_index: int) -> None:
        """Flush a row that stops at ``interval_index`` and rewind its draws.

        A row that stops inside the block rewinds its power noise to the
        block's start and redraws only the intervals it ran
        (:func:`_rewind_noise`).  The counter-noise and mask streams
        belong to the session alone.
        """
        ran = interval_index - self.start
        self.flush(k, recording, ran)
        if ran < self.length:
            _rewind_noise(self.models[k], self._saved[k], ran, self.power_w.shape[2])

    def keep(self, rows: "list[int]") -> None:
        """Keep only ``rows`` (ascending positions)."""
        self.models = [self.models[k] for k in rows]
        self.sensors = [self.sensors[k] for k in rows]
        self._saved = [self._saved[k] for k in rows]
        for name in (
            "power_w", "measured_w", "target_w", "levels",
            "power_noise_w", "counter_noise_w",
        ):
            setattr(self, name, getattr(self, name)[rows])


class _Recording:
    """One dynamic row's trace buffers, indexed by interval along axis 0.

    Sized exactly for a fixed-duration row, and doubling up to the cap for
    a completion-mode row.  Buffers are per row, not fleet-wide, so an
    exactly sized one becomes the trace array itself (see :func:`_cut`).
    """

    def __init__(self, row: SessionRow, ticks: int) -> None:
        capacity = row.cap if row.tail is None else min(row.cap, _COMPLETION_CAPACITY)
        self.cap = row.cap
        self.power_w = np.empty((capacity, ticks))
        self.measured_w = np.empty(capacity)
        self.target_w = np.empty(capacity)
        self.settings = np.empty((capacity, 3))

    def store(self, start, power_w, measured_w, target_w, levels) -> None:
        """Store intervals from ``start`` on (growing the buffers first if full)."""
        stop = start + measured_w.shape[0]
        capacity = self.measured_w.shape[0]
        if stop > capacity:
            capacity = min(max(2 * capacity, stop), self.cap)
            self.power_w = _grown(self.power_w, capacity)
            self.measured_w = _grown(self.measured_w, capacity)
            self.target_w = _grown(self.target_w, capacity)
            self.settings = _grown(self.settings, capacity)
        self.power_w[start:stop] = power_w
        self.measured_w[start:stop] = measured_w
        self.target_w[start:stop] = target_w
        self.settings[start:stop] = levels


def _noise_mark(model) -> tuple:
    """Where a power model's noise stream stands: RNG state and AR(1) level."""
    return model._rng.bit_generator.state, model._noise_state


def _rewind_noise(model, mark: tuple, n_windows: int, window_ticks: int) -> None:
    """Rewind ``model``'s power noise to ``mark`` and redraw ``n_windows`` windows.

    The retire step of a row whose recording ends before the intervals
    drawn ahead for it: its machine then carries the RNG position and AR(1)
    level a per-interval draw of the intervals it ran leaves into a later
    session.  Both kernel paths use it: the dynamic loop's blocks and the
    constant-settings fast-forward's chunks.
    """
    model._rng.bit_generator.state, model._noise_state = mark
    draw_noise([model], [], n_windows, window_ticks)


def _grown(buffer: np.ndarray, capacity: int) -> np.ndarray:
    """The buffer copied into a fresh array of ``capacity`` rows."""
    grown = np.empty((capacity,) + buffer.shape[1:], dtype=buffer.dtype)
    grown[: buffer.shape[0]] = buffer
    return grown


# -- constant-settings defenses: whole-session fast-forward -----------------


def _run_constant(rows: "list[SessionRow]") -> None:
    """Whole-session fast path for constant-settings defenses.

    The defense's single actuation triple is known up front, so the
    session evaluates in chunks of up to :data:`CONST_CHUNK_INTERVALS`
    intervals: scalar window-grid bookkeeping per session
    (:class:`_SessionCursor`), then one fleet ``batch_window_power`` and
    one multi-window ``measure_windows`` per chunk; a chunk's AR(1) noise
    is filtered time-major while at least :data:`WIDE_FLEET_ROWS` rows are
    active, as in the dynamic loop.  AR(1) state and RNG streams carry
    across chunks exactly as across single windows, and the thermal node
    runs once over the recorded ticks.  A chunk never runs
    past any active row's cap, so a row can only overrun its recording
    when it completes inside the chunk: its cursor stops the clock where
    the recording ends and its power noise is rewound there
    (:func:`_rewind_noise`), so its machine ends where the per-interval
    loop leaves it.
    """
    tick_s = rows[0].machine.tick_s
    ticks = rows[0].ticks_per_interval
    model = rows[0].machine.power_model
    settings = [row.defense.initial_settings() for row in rows]
    levels = np.array([tuple(applied) for applied in settings], dtype=float)
    cursors = [
        _SessionCursor(row.machine, applied, row.tail)
        for row, applied in zip(rows, settings)
    ]
    for row, cursor in zip(rows, cursors):
        # Set only for a row completed before the session: its tail starts
        # at interval 0.
        row.deadline = cursor.deadline
    power_chunks: list = [[] for _ in rows]
    measured_chunks: list = [[] for _ in rows]
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
            models = [rows[i].machine.power_model for i in active]
            marks = [_noise_mark(row_model) for row_model in models]
            noise_w, _ = draw_noise(
                models, [], n_int, ticks, time_major=len(active) >= WIDE_FLEET_ROWS
            )
            window_w = batch_window_power(
                model, activity, core_fraction, levels[active], noise_w
            )

        with profile.span("kernel.measure", intervals=n_int):
            _, counter_noise_w = draw_noise([], [rows[i].sensor for i in active], n_int, 0)
            measured_w = measure_windows(
                window_w.reshape(len(active), n_int, ticks), tick_s, counter_noise_w
            )
        for k, i in enumerate(active):
            row = rows[i]
            power_chunks[i].append(window_w[k])
            measured_chunks[i].append(measured_w[k])
            if row.tail is not None:
                row.deadline = cursors[i].deadline
            ran = row.stop() - done
            if ran < n_int:
                _rewind_noise(models[k], marks[k], ran, ticks)
        done += n_int
        active = [i for i in active if rows[i].stop() > done]

    for i, row in enumerate(rows):
        n_rec = row.stop()
        applied = settings[i]
        target_w = np.full(n_rec, row.defense.current_target_w)
        settings_log = np.empty((n_rec, 3))
        settings_log[:] = levels[i]
        power_w = np.concatenate(power_chunks[i])
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
        thermal = row.machine.thermal
        row.finish(
            power_w,
            measured_w,
            target_w,
            settings_log,
            None if thermal is None
            else thermal.advance(power_w[: n_rec * ticks], tick_s),
        )


def _deadline_from_completion(
    completion_tick: int, ticks_per_interval: int, tail_intervals: int
) -> int:
    """The per-interval loop's recording deadline implied by a completion tick.

    ``completion_tick`` is the 1-based tick of the call at which the
    workload completed.  The per-interval loop (:func:`_run_dynamic`)
    observes completion at the *top* of the interval after the one during
    which it occurred, and records ``tail_s`` worth of intervals from there.
    """
    completed_interval = (completion_tick - 1) // ticks_per_interval
    return completed_interval + 1 + tail_intervals


class _SessionCursor:
    """Scalar replay of ``SimulatedMachine.activity_profile`` bookkeeping.

    Advances the machine's phase cursors on the per-interval loop's window
    grid with its exact float operations — same expressions, same order — but
    *defers* the per-tick work-time grids and activity evaluation,
    recording ``(phase, bases, work_per_tick, seg_ticks)`` span descriptors
    for :func:`_materialize`.  Runs of whole windows that one phase fully
    survives, and a finished machine's coasting windows, are fast-forwarded
    through ``np.add.accumulate``, which is a strict sequential left fold —
    the per-window ``+=`` chain lands on bit-identical values — so
    segmentation decisions, ``time_s`` and ``completed_at_s`` all match the
    per-interval loop exactly.  A completion-mode cursor (``tail``
    intervals) knows its recording deadline once the workload completes
    and stops the clock there, where the per-interval loop stops the row.
    """

    def __init__(self, machine, settings, tail: "int | None" = None) -> None:
        self.machine = machine
        self.freq_fraction = settings.freq_ghz / machine.spec.freq_max_ghz
        self.idle_frac = settings.idle_frac
        self.balloon_level = settings.balloon_level
        self.tail = tail
        #: Completion-mode recording deadline (intervals), once completed.
        self.deadline: int | None = (
            tail if tail is not None and machine.completed else None
        )
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
                self._coast(windows_left, window_ticks, offset)
                self._global_tick += coast_ticks
                return
            if self._rate_phase_index != machine._phase_index:
                # The per-interval loop recomputes the rate every window; it is a
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
                # values the per-window updates would store.
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
                    if self.tail is not None:
                        self.deadline = _deadline_from_completion(
                            self._global_tick, window_ticks, self.tail
                        )

    def _coast(self, n_windows: int, window_ticks: int, offset: int) -> None:
        """Advance a finished machine's clock over its coasting windows.

        The first window is ``offset`` ticks in.  The per-interval loop adds
        the rest of that window, then one whole window per interval, and
        stops at the row's recording deadline; this folds the same adds.
        """
        machine = self.machine
        window = self._global_tick // window_ticks
        if offset:
            machine.time_s += (window_ticks - offset) * machine.tick_s
            n_windows -= 1
            window += 1
        if self.deadline is not None:
            n_windows = min(n_windows, self.deadline - window)
        if n_windows > 0:
            folded = np.empty(n_windows + 1)
            folded[0] = machine.time_s
            folded[1:] = window_ticks * machine.tick_s
            machine.time_s = float(np.add.accumulate(folded)[-1])


def _materialize(spans: list, activity_out: np.ndarray, core_out: np.ndarray) -> None:
    """Evaluate deferred span descriptors into per-tick profiles.

    Each span holds equal-length segments of one phase at one
    ``work_per_tick`` (a fast-forwarded window run, or a single partial
    window): the per-tick ``k`` indices and ``wip + wpt*k`` work times
    reproduce the per-window expressions elementwise.

    ``phase.activity_at`` runs its ``np.sin`` over the whole span instead
    of one window at a time: one of the two numpy-build-dependent sites
    that DESIGN.md §7 names.
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
        # to the per-window `wip + wpt * (arange + 1.0)`.
        k = np.tile(np.arange(seg_ticks, dtype=np.float64) + 1.0, bases.size)
        work_times = offsets + work_per_tick * k
        activity_out[position:position + total] = phase.activity_at(work_times)
        core_out[position:position + total] = phase.core_fraction
        position += total
