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
  chunks of :data:`CONST_CHUNK_INTERVALS` intervals (:func:`_run_constant`),
  each machine walking its own phase cursor over a chunk's windows at
  once (:meth:`~repro.machine.SimulatedMachine.walk`, whose one-window
  case is the per-interval step), so the kernel keeps no cursor of its
  own;
* every other defense decides interval by interval (:func:`_run_dynamic`)
  after one fleet pass of the phase cursors
  (:func:`repro.machine.activity_profiles`, or a
  :class:`~repro.machine.CursorFleet` on a wide fleet).  One
  :class:`~repro.defenses.DefenseFleet` serves the whole call: it keeps
  the Equation-1 state of every Maya row sharing a design in one
  :class:`~repro.control.ControllerFleet`, whose stacked ``np.matmul``
  makes per row the BLAS call of a one-row ``M @ x``.  What the loop
  never feeds back -- mask targets, power noise, RAPL counter noise -- is
  drawn per row :data:`BLOCK_INTERVALS` intervals ahead (:class:`_Block`).

**Settings as level indices.**  Every decision is one row of the
actuators' finite level grid, so both loops carry each row's settings as
a joint level index into the call's :class:`~repro.machine.JointLevels`:
a Maya group's controller step returns it, and open-loop decisions and
initial settings are indexed, an off-grid triple as an appended row.  The
power step gathers its operating points from one per-index table
(:meth:`~repro.machine.PowerModel.operating_points`) at every fleet
width, each interval writes its power and RAPL read straight into the
block's staging buffers, and the staged indices become float settings
only when a block is flushed into the rows' trace buffers.

**Narrow fleets.**  A dynamic fleet of a few rows (Fig. 11's one row,
Fig. 14's four Maya rows, every ``run_session``) pays per interval a fixed
cost per numpy call rather than a cost per row, so each phase keeps its
call count small: the controller step gathers what it needs of each
row's applied command from per-command tables and quantizes with one
comparison against exact thresholds (DESIGN.md §7), a
:class:`~repro.defenses.DefenseFleet` whose one Maya group holds every
row steps it without scattering, the power step gathers the operating
points of the rows' indices, and each machine's cursor step reuses the
progress rate of its phase at a grid index it has met before.  None of
this changes an operation on a value.

**Wide fleets.**  While a dynamic fleet has at least
:data:`WIDE_FLEET_ROWS` active rows, its interval takes no Python step per
row: a :class:`~repro.machine.CursorFleet` replaces the per-machine
cursor walk, gathering each row's frequency speedup by its index's DVFS
column from a table filled once per DVFS value and speedup function by
``Phase.frequency_speedup`` itself, and each block's AR(1) noise is
filtered time-major.  The cursor fleet owns every row's phase index, work
into the phase, work done, ``time_s`` and ``completed_at_s`` while the
fleet is wide; it writes them back to the machines only when a row
retires, when the fleet turns narrow and at the end of the call, and
completion is detected from its arrays.  The path is chosen each time
the loop rebuilds its active fleet; the fleet only shrinks, so it turns
narrow at most once, and narrow fleets run the per-row cursor code,
which stays the oracle.  The constant-settings fast-forward applies the
same rule to its chunks' AR(1) noise: time-major while at least
:data:`WIDE_FLEET_ROWS` rows are active.

**Per-row termination.**  A fixed-duration row records
``min(duration_s, max_duration_s)``; a completion-mode row (``duration_s
is None``) records ``tail_s`` past the interval after completion, capped
at its own ``max_duration_s``; both loops set that deadline with one
rule (:meth:`SessionRow.start_tail`) and build the trace with one step
(:meth:`SessionRow.finish`).  A row leaves the fleet as soon as its
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
multi-window RAPL reduction replays the per-window sums.  A
constant-settings chunk knows every row's stop before it draws (the walk
sets a completing row's deadline first), so each row draws its power
noise only up to its stop.  A row whose recording ends before what was
drawn ahead for it (a completion-mode row whose deadline falls inside a
dynamic block) takes one retire step, :func:`_rewind_noise`: its power
model's bit-generator state and carried AR(1) level go back to where the
draw began and only the intervals it ran are redrawn.  Either way a
reused machine enters its next session with the state a per-interval
draw would leave; the mask and sensor streams belong to the session and
are dropped with it.  So each row of a B-row call equals a one-row call, and the
constant-settings fast-forward equals the per-interval loop.  The golden
trace digests (``tests/test_golden_traces.py``) pin the absolute bits.
Three sites depend on the numpy build in the same way: a walk's folded
run of windows (:meth:`~repro.machine.SimulatedMachine.walk`) and the
fleet phase cursor (``activity_profiles``, or the same evaluation in
``CursorFleet``) evaluate a phase's ``np.sin`` over a stacked array rather
than one window of one row, and a mask evaluates its sinusoid over a
whole segment rather than one sample (DESIGN.md §7 names all three).

**Shape contract.**  Rows of one fixed-duration batch with equal caps
return traces of identical shapes, which lets :meth:`TraceCache.put_many
<repro.exec.cache.TraceCache.put_many>` stack them into one pack; a
ragged (completion-mode) batch is written as one pack per shape.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..defenses.base import Defense
from ..defenses.designs import DefenseFactory, DefenseFleet
from ..machine import (
    ActuatorSettings,
    CursorFleet,
    JointLevels,
    RaplSensor,
    SimulatedMachine,
    Trace,
    activity_profiles,
    batch_window_power,
    draw_noise,
    spawn,
)
from ..machine.sensors import check_windows, read_windows
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
#: passes (:class:`~repro.machine.CursorFleet`, time-major AR(1) noise)
#: rather than per-row Python: the measured
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
    the session's telemetry channel when recording is on (``job`` binds
    its manifest to the job's content address and identity).
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
        job: "SessionJob | None" = None,
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
                job_key=None if job is None else job.key(),
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
                **({} if job is None else telemetry.job_fields(job)),
            )
            if recorder.enabled
            else None
        )

    def stop(self) -> int:
        """Intervals this row records, as far as is known now."""
        return self.cap if self.deadline is None else min(self.deadline, self.cap)

    def start_tail(self, interval_index: int) -> None:
        """Set a completion-mode row's deadline from its completion.

        ``interval_index`` is the first interval at whose top the workload
        is seen completed; the row records ``tail`` intervals from there,
        within its cap.
        """
        if interval_index < self.cap:
            self.deadline = interval_index + self.tail

    def finish(self, recording: "_Recording") -> None:
        """Build the row's trace from its recording buffers, cut to length.

        The thermal node never feeds back, so a temperature-recording row
        runs it once here over the recorded ticks (its recursion splits
        exactly).
        """
        n_intervals = self.stop()
        n_ticks = n_intervals * self.ticks_per_interval
        power_w = recording.power_w.reshape(-1)
        machine = self.machine
        thermal = machine.thermal
        self.trace = Trace(
            workload=machine.workload.name,
            platform=machine.spec.name,
            defense=self.defense.name,
            tick_s=machine.tick_s,
            interval_s=self.interval_s,
            power_w=_cut(power_w, n_ticks),
            measured_w=_cut(recording.measured_w, n_intervals),
            target_w=_cut(recording.target_w, n_intervals),
            settings=_cut(recording.settings, n_intervals),
            completed_at_s=machine.completed_at_s,
            temperature_c=(
                np.empty(0) if thermal is None
                else thermal.advance(power_w[:n_ticks], machine.tick_s)
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
            job=job,
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
    serves the whole call, and the settings travel as one ``(B,)`` array
    of joint level indices into the call's :class:`~repro.machine.JointLevels`.
    What the loop never feeds back -- mask targets, power noise and RAPL
    counter noise -- is drawn a :class:`_Block` of intervals ahead, and
    each interval writes its power, reading, target and level index
    straight into the block's staging buffers; the block is copied into
    the rows' own buffers, its indices turned into settings, when it ends.
    A fleet of at least :data:`WIDE_FLEET_ROWS` active rows advances its
    cursors and filters its noise as fleet passes (module docstring,
    "Wide fleets").

    Each interval checks every row's termination at its top and drops rows
    whose recording has ended, so a retired row's machine, RNG streams and
    ``completed_at_s`` stay where its own recording left them: a row that
    stops inside a block rewinds its power model to the block's start and
    redraws only the intervals it ran.
    """
    tick_s = rows[0].machine.tick_s
    ticks = rows[0].ticks_per_interval
    # Supplies the operating-point table, a function of the platform.
    model = rows[0].machine.power_model
    levels = JointLevels(rows[0].machine.bank)
    recordings = [_Recording(row, ticks) for row in rows]
    pending = [i for i, row in enumerate(rows) if row.tail is not None]
    active = list(range(len(rows)))
    decisions = DefenseFleet([row.defense for row in rows], levels)
    index = decisions.index
    # A wide fleet's phase cursors.
    cursors: "CursorFleet | None" = None
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
                    rows[i].start_tail(interval_index)
                    next_stop = min(next_stop, rows[i].stop())
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
                index = decisions.index
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
            elif not wide and cursors is not None:
                cursors.write_back()
                cursors = None
            activity = np.empty((len(active), ticks))
            core_fraction = np.empty((len(active), ticks))
        if block is None or interval_index == block.end:
            if block is not None:
                for k, i in enumerate(active):
                    block.flush(k, recordings[i], block.length)
            block = _Block(
                fleet, levels, interval_index,
                min(BLOCK_INTERVALS, next_stop - interval_index), wide,
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
                activity_profiles(machines, ticks, levels, index, activity, core_fraction)
            else:
                cursors.advance(ticks, levels, index, activity, core_fraction)
        with span("kernel.power", interval=interval_index):
            if column == 0:
                block.draw_power_noise()
            window_w = batch_window_power(
                model, activity, core_fraction, levels, index,
                block.power_noise_w[:, column], out=block.power_w[:, column],
            )
        with span("kernel.measure", interval=interval_index):
            if column == 0:
                block.draw_counter_noise()
            measured_w = read_windows(
                window_w, tick_s, block.counter_noise_w[:, column],
                out=block.measured_w[:, column],
            )
        block.target_w[:, column] = decisions.targets_w
        block.index[:, column] = index

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
                    ActuatorSettings(*levels.triples[index[k]].tolist()),
                    fleet[k].defense,
                )
        index = decided
        interval_index += 1

    for row, recording in zip(rows, recordings):
        row.finish(recording)


#: Intervals a dynamic fleet draws ahead per :class:`_Block`: long enough to
#: amortize each session's draws over many intervals, short enough that a
#: row stopping inside a block redraws little.
BLOCK_INTERVALS = 64


class _Block:
    """Intervals whose noise is drawn ahead: a dynamic block or a constant chunk.

    A dynamic fleet's block spans up to :data:`BLOCK_INTERVALS` intervals,
    a constant-settings chunk up to :data:`CONST_CHUNK_INTERVALS`.  Holds,
    per active row, the power and counter noise drawn ahead for the block
    (in the block's first interval, before any row can retire) and the
    staging buffers the intervals are written to, the settings as joint
    level indices into ``levels``.  Its shapes are checked for the RAPL
    read once, here.  No block runs past an active row's known stop, so
    only a row whose completion deadline falls inside the block stops
    early.
    """

    def __init__(
        self, fleet: "list[SessionRow]", levels: JointLevels, start: int, length: int,
        wide: bool,
    ) -> None:
        ticks = fleet[0].ticks_per_interval
        self.levels = levels
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
        self.index = np.empty((n_rows, length), dtype=np.intp)
        check_windows(self.power_w.shape, self.measured_w.shape)

    def draw_power_noise(self, row_windows: "list[int] | None" = None) -> None:
        """Draw every row's process noise for the block, saving where it began.

        With ``row_windows``, row ``k`` draws only its first
        ``row_windows[k]`` intervals (:func:`~repro.machine.draw_noise`).
        """
        self._saved = [_noise_mark(model) for model in self.models]
        self._drawn = [self.length] * len(self.models) if row_windows is None else row_windows
        ticks = self.power_w.shape[2]
        power_noise_w, _ = draw_noise(
            self.models, [], self.length, ticks, time_major=self.wide,
            row_windows=row_windows,
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
            self.levels.triples[self.index[k, :n_intervals]],
        )

    def retire(self, k: int, recording: "_Recording", interval_index: int) -> None:
        """Flush a row that stops at ``interval_index`` and rewind its draws.

        A row that stops before the intervals drawn for it rewinds its
        power noise to the block's start and redraws only the intervals it
        ran (:func:`_rewind_noise`).  The counter-noise and mask streams
        belong to the session alone.
        """
        ran = interval_index - self.start
        self.flush(k, recording, ran)
        if ran < self._drawn[k]:
            _rewind_noise(self.models[k], self._saved[k], ran, self.power_w.shape[2])

    def keep(self, rows: "list[int]") -> None:
        """Keep only ``rows`` (ascending positions)."""
        self.models = [self.models[k] for k in rows]
        self.sensors = [self.sensors[k] for k in rows]
        self._saved = [self._saved[k] for k in rows]
        self._drawn = [self._drawn[k] for k in rows]
        for name in (
            "power_w", "measured_w", "target_w", "index",
            "power_noise_w", "counter_noise_w",
        ):
            setattr(self, name, getattr(self, name)[rows])


class _Recording:
    """One row's trace buffers, indexed by interval along axis 0.

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

    def store(self, start, power_w, measured_w, target_w, settings) -> None:
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
        self.settings[start:stop] = settings


def _noise_mark(model) -> tuple:
    """Where a power model's noise stream stands: RNG state and AR(1) level."""
    return model._rng.bit_generator.state, model._noise_state


def _rewind_noise(model, mark: tuple, n_windows: int, window_ticks: int) -> None:
    """Rewind ``model``'s power noise to ``mark`` and redraw ``n_windows`` windows.

    The retire step of a row whose recording ends before the intervals
    drawn ahead for it: its machine then carries the RNG position and AR(1)
    level a per-interval draw of the intervals it ran leaves into a later
    session.  The dynamic loop uses it, through :meth:`_Block.retire`.
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
    intervals: each row's machine walks the chunk's windows
    (:meth:`~repro.machine.SimulatedMachine.walk`), then one fleet
    ``batch_window_power`` (at each row's joint level index) and one
    multi-window RAPL read run per chunk, over noise drawn ahead as one
    :class:`_Block`, filtered time-major while at least
    :data:`WIDE_FLEET_ROWS` rows are active, as in the dynamic loop.
    AR(1) state and RNG streams carry across chunks exactly as across
    single windows.  A chunk never runs past any active row's cap, so a
    row can only overrun its recording when it completes inside the chunk:
    the walk reports the window of completion, the row starts its tail at
    the next interval's top (:meth:`SessionRow.start_tail`, the
    per-interval loop's rule) and its machine coasts only up to that
    deadline.  The walk runs before the block draws, so every row's stop
    is known then, and each row draws its power noise only up to it:
    its machine ends where the per-interval loop leaves it, with nothing
    to rewind.
    """
    tick_s = rows[0].machine.tick_s
    ticks = rows[0].ticks_per_interval
    model = rows[0].machine.power_model
    levels = JointLevels(rows[0].machine.bank)
    settings = [row.defense.initial_settings() for row in rows]
    index = np.array([levels.index(applied) for applied in settings], dtype=np.intp)
    recordings = [_Recording(row, ticks) for row in rows]
    active = list(range(len(rows)))
    done = 0
    while active:
        n_int = min(CONST_CHUNK_INTERVALS, min(rows[i].stop() for i in active) - done)
        n_ticks = n_int * ticks
        # Ticks past a row's deadline are never walked; they stay idle.
        activity = np.zeros((len(active), n_ticks))
        core_fraction = np.zeros((len(active), n_ticks))
        with profile.span("kernel.fast_forward", intervals=n_int):
            for k, i in enumerate(active):
                row = rows[i]
                machine = row.machine
                walked = 0
                if not machine.completed:
                    walked = machine.walk(n_int, ticks, settings[i], activity[k], core_fraction[k])
                if machine.completed:
                    if row.tail is not None and row.deadline is None:
                        row.start_tail(done + walked)
                    coast = min(n_int, row.stop() - done) - walked
                    start = walked * ticks
                    machine.walk(
                        coast, ticks, settings[i], activity[k, start:], core_fraction[k, start:]
                    )

        fleet = [rows[i] for i in active]
        block = _Block(fleet, levels, done, n_int, len(active) >= WIDE_FLEET_ROWS)
        ran = [min(row.stop(), block.end) - done for row in fleet]
        with profile.span("kernel.power", intervals=n_int):
            block.draw_power_noise(ran)
            batch_window_power(
                model, activity, core_fraction, levels, index[active],
                block.power_noise_w.reshape(len(active), n_ticks),
                out=block.power_w.reshape(len(active), n_ticks),
            )
        with profile.span("kernel.measure", intervals=n_int):
            block.draw_counter_noise()
            read_windows(block.power_w, tick_s, block.counter_noise_w, out=block.measured_w)
        block.target_w[:] = [[row.defense.current_target_w] for row in fleet]
        block.index[:] = index[active, None]
        for k, i in enumerate(active):
            block.retire(k, recordings[i], done + ran[k])
        done += n_int
        active = [i for i in active if rows[i].stop() > done]

    for row, recording, applied in zip(rows, recordings, settings):
        if row.channel is not None:
            for interval_index in range(row.stop()):
                row.channel.interval(
                    interval_index,
                    recording.target_w[interval_index],
                    recording.measured_w[interval_index],
                    applied,
                    row.defense,
                )
        row.finish(recording)
