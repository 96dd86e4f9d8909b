"""The simulated machine: executes a workload under actuator settings.

:class:`SimulatedMachine` advances a :class:`~repro.workloads.phases.PhaseProgram`
in wall-clock ticks (default 1 ms).  During an advance the actuator settings
are constant, so the power of each phase segment is computed vectorized.
The machine tracks application *work*, not time: actuation that slows the
machine stretches execution, which is where the paper's performance
overheads come from.

The machine itself knows nothing about defenses, masks or attackers — the
control loop lives in :mod:`repro.exec.batch`.
"""

from __future__ import annotations

import math

import numpy as np

from ..workloads.phases import Phase, PhaseProgram, oscillating_activity, throttled_rate
from .actuators import ActuatorBank, ActuatorSettings, LevelTable
from .platform import PlatformSpec
from .power import PowerModel
from .thermal import ThermalModel
from . import rng as rng_mod

__all__ = ["CursorFleet", "SimulatedMachine", "activity_profiles"]


class SimulatedMachine:
    """Discrete-time simulation of one platform running one workload."""

    def __init__(
        self,
        spec: PlatformSpec,
        workload: PhaseProgram,
        seed: int = 0,
        run_id: object = 0,
        tick_s: float = 0.001,
        record_temperature: bool = False,
        workload_jitter: float = 0.08,
    ) -> None:
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        self.spec = spec
        if workload_jitter > 0:
            # Run-to-run variation: no two executions of the same program
            # are identical (timing, loop rates, activity all drift a few
            # percent), exactly as on a real machine.
            workload = workload.jittered(
                rng_mod.spawn(seed, "workload-jitter", workload.name, run_id),
                workload_jitter,
            )
        self.workload = workload
        self.tick_s = tick_s
        self.bank = ActuatorBank(spec)
        self.power_model = PowerModel(
            spec, rng_mod.spawn(seed, "power", spec.name, workload.name, run_id)
        )
        self.thermal = ThermalModel() if record_temperature else None
        self.record_temperature = record_temperature

        self.time_s = 0.0
        self.work_done = 0.0
        self._phase_index = 0
        self._work_into_phase = 0.0
        self.completed_at_s = float("nan")

    @property
    def completed(self) -> bool:
        return self._phase_index >= len(self.workload.phases)

    def reset(self) -> None:
        """Rewind the workload without re-seeding the noise streams."""
        self.time_s = 0.0
        self.work_done = 0.0
        self._phase_index = 0
        self._work_into_phase = 0.0
        self.completed_at_s = float("nan")
        if self.thermal is not None:
            self.thermal.reset()

    def activity_profile(
        self,
        n_ticks: int,
        settings: ActuatorSettings,
        activity_out: np.ndarray,
        core_fraction_out: np.ndarray,
    ) -> None:
        """Advance the workload ``n_ticks`` and fill its per-tick profile.

        The one-window case of :meth:`walk`: it updates the machine's
        work/time accounting and writes the window's switching activity and
        core occupancy into the provided ``n_ticks``-length buffers, without
        evaluating the power model.  The lock-step kernel advances a whole
        fleet through :func:`activity_profiles` instead.
        """
        if n_ticks <= 0:
            raise ValueError("duration shorter than one tick")
        self.walk(1, n_ticks, settings, activity_out, core_fraction_out)

    def next_segment(self, ticks_left: int, settings) -> tuple:
        """Advance the phase cursor by one segment of at most ``ticks_left``.

        The scalar half of :meth:`activity_profile`: a segment ends at the
        window's end or at the current phase's boundary, whichever comes
        first.  ``settings`` is the held ``(freq_ghz, idle_frac,
        balloon_level)`` triple: an :class:`ActuatorSettings` or one row of
        a fleet's level array.  Returns ``(phase, work_into_phase, work_per_tick,
        seg_ticks)``, where ``work_into_phase`` is the cursor *before* the
        segment; ``phase`` is ``None`` once the workload has completed,
        and the segment then coasts through the rest of the window.
        """
        if self.completed:
            # Application finished: only static power, noise, and any
            # balloon the defense keeps running.
            self.time_s += ticks_left * self.tick_s
            return None, 0.0, 0.0, ticks_left

        phase = self.workload.phases[self._phase_index]
        freq_ghz, idle_frac, balloon_level = settings
        rate = phase.progress_rate(
            freq_ghz / self.spec.freq_max_ghz, idle_frac, balloon_level
        )
        # Defensive clamp: a custom Phase whose progress_rate returns a
        # zero, negative, or non-finite rate (e.g. idle_frac at its
        # ceiling without the base class's own floor) would otherwise
        # divide work_remaining by zero below.
        if not (rate > 0.0) or not math.isfinite(rate):
            rate = 1e-6
        work_per_tick = rate * self.tick_s
        work_into_phase = self._work_into_phase
        work_remaining = phase.work_units - work_into_phase
        ticks_in_phase = math.ceil(work_remaining / work_per_tick - 1e-12)
        seg_ticks = min(ticks_left, max(ticks_in_phase, 1))

        advanced_work = work_per_tick * seg_ticks
        self._work_into_phase += advanced_work
        self.work_done += advanced_work
        self.time_s += seg_ticks * self.tick_s
        if self._work_into_phase >= phase.work_units - 1e-9:
            self._work_into_phase = 0.0
            self._phase_index += 1
            if self.completed and not math.isfinite(self.completed_at_s):
                self.completed_at_s = self.time_s
        return phase, work_into_phase, work_per_tick, seg_ticks

    def finish_window(self, segment: tuple, window_ticks: int, settings, spans: list) -> None:
        """Append ``segment``, a window's first, and the segments that fill the window."""
        spans.append(segment)
        filled = segment[3]
        while filled < window_ticks:
            segment = self.next_segment(window_ticks - filled, settings)
            spans.append(segment)
            filled += segment[3]

    def walk(
        self,
        n_windows: int,
        window_ticks: int,
        settings,
        activity_out: np.ndarray,
        core_fraction_out: np.ndarray,
    ) -> int:
        """Advance up to ``n_windows`` windows at held ``settings``; return how many.

        Fills the walked windows' ticks of the buffers and leaves the
        machine exactly as that many :meth:`activity_profile` calls of
        ``window_ticks`` would, window by window: every partial-window step
        is :meth:`next_segment`.  A window that completes the workload is
        filled to its end and ends the walk, so a walk that stops short
        returns the windows through the one in which the workload
        completed.  A walk on a completed machine coasts all ``n_windows``.

        Two folds make long walks cheap, each an ``np.add.accumulate``,
        which is a strict sequential left fold and so stores the bits of
        the per-window ``+=`` chain: the run of whole windows the current
        phase survives (one span, its window starts an ``(n, 1)`` column),
        and a completed machine's coasting windows.
        """
        spans: list = []
        coasting = self.completed
        window_s = window_ticks * self.tick_s
        walked = 0
        while walked < n_windows:
            phase_index = self._phase_index
            segment = self.next_segment(window_ticks, settings)
            self.finish_window(segment, window_ticks, settings, spans)
            walked += 1
            n_rest = n_windows - walked
            if n_rest == 0 or (self.completed and not coasting):
                break
            if coasting:
                spans.append((None, 0.0, 0.0, n_rest * window_ticks))
                self.time_s = float(_fold(self.time_s, window_s, n_rest)[-1])
                walked = n_windows
                break
            phase, _, work_per_tick, _ = segment
            if self._phase_index != phase_index:
                continue
            # One segment filled the window inside the phase: fold the
            # whole windows the phase survives from here.
            window_work = work_per_tick * window_ticks
            starts = _fold(self._work_into_phase, window_work, n_rest)
            needed = np.ceil((phase.work_units - starts[:-1]) / work_per_tick - 1e-12)
            survives = (needed >= window_ticks) & (starts[1:] < phase.work_units - 1e-9)
            n_run = survives.size if survives.all() else int(np.argmin(survives))
            if n_run:
                spans.append((phase, starts[:n_run, None], work_per_tick, window_ticks))
                self._work_into_phase = float(starts[n_run])
                self.work_done = float(_fold(self.work_done, window_work, n_run)[-1])
                self.time_s = float(_fold(self.time_s, window_s, n_run)[-1])
                walked += n_run
        _fill_spans(spans, activity_out, core_fraction_out)
        return walked

    def advance(
        self, duration_s: float, settings: ActuatorSettings
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the machine for ``duration_s`` with constant settings.

        Returns ``(power_w, temperature_c)`` per tick; the temperature array
        is empty unless the machine records temperature.  The whole window
        is evaluated in a single :meth:`PowerModel.window_power` call over
        the per-tick activity/occupancy profile: the AR(1) shock stream and
        the row-wise filter split identically at segment boundaries, so the
        result is bit-identical to the historical per-segment evaluation.
        """
        n_ticks = int(round(duration_s / self.tick_s))
        activity = np.empty(n_ticks if n_ticks > 0 else 0)
        core_fraction = np.empty_like(activity)
        self.activity_profile(n_ticks, settings, activity, core_fraction)
        power_w = self.power_model.window_power(
            activity,
            core_fraction=core_fraction,
            freq_ghz=settings.freq_ghz,
            idle_frac=settings.idle_frac,
            balloon_level=settings.balloon_level,
        )
        if self.thermal is not None:
            temperature_c = self.thermal.advance(power_w, self.tick_s)
        else:
            temperature_c = np.empty(0)
        return power_w, temperature_c


def _fold(start: float, step: float, n: int) -> np.ndarray:
    """``start`` and its ``n`` successive ``+= step`` updates, in float64."""
    terms = np.full(n + 1, step)
    terms[0] = start
    return np.add.accumulate(terms)


def _fill_spans(spans: list, activity_out: np.ndarray, core_fraction_out: np.ndarray) -> None:
    """Evaluate spans, in order, into per-tick profiles.

    A span is a :meth:`SimulatedMachine.next_segment` result, a coasting
    run of ticks (phase ``None``), or a fold of whole windows of one phase,
    whose window starts are an ``(n, 1)`` column.  Each segment's ticks get
    the work-time grid ``work_into_phase + work_per_tick * k`` (``k = 1 ..
    seg_ticks``; loop phases oscillate in work time, so slowdowns stretch
    their apparent period) and the phase's activity and occupancy on it.

    A folded run evaluates its phase's ``np.sin`` over all its windows at
    once: one of the numpy-build-dependent sites that DESIGN.md §7 names.
    """
    position = 0
    for phase, work_into_phase, work_per_tick, seg_ticks in spans:
        if phase is None:
            end = position + seg_ticks
            activity_out[position:end] = 0.0
            core_fraction_out[position:end] = 0.0
        else:
            work_times = work_into_phase + work_per_tick * (np.arange(seg_ticks) + 1.0)
            end = position + work_times.size
            activity_out[position:end] = phase.activity_at(work_times).ravel()
            core_fraction_out[position:end] = phase.core_fraction
        position = end


def activity_profiles(
    machines: "list[SimulatedMachine]",
    n_ticks: int,
    levels: np.ndarray,
    activity_out: np.ndarray,
    core_fraction_out: np.ndarray,
) -> None:
    """:meth:`SimulatedMachine.activity_profile` for every row of a fleet.

    ``levels`` holds each row's settings as a ``(B, 3)`` array.  Row ``k``
    of the ``(B, n_ticks)`` buffers and ``machines[k]``'s cursor end up
    exactly as ``machines[k].activity_profile(n_ticks, ActuatorSettings(
    *levels[k]), ...)`` leaves them.  Every row takes its first
    :meth:`~SimulatedMachine.next_segment` step (the same scalar cursor
    code).  A row whose first segment covers the whole window inside one
    phase -- most rows, most windows -- joins one shared work-time grid
    and one activity evaluation over per-row ``(R, 1)`` columns, both
    elementwise in the one-row expression order; a flat-activity row
    evaluates with amplitude 0, which gives exactly its phase's constant,
    as :meth:`~repro.workloads.Phase.activity_at` returns it
    (``a * (1.0 + 0.0 * wave) == a``, and clipping a valid activity to
    ``[0, 1]`` keeps it).  Rows that cross a phase boundary, complete or coast
    finish the window through :meth:`~SimulatedMachine.finish_window` and
    the walk's span evaluator.

    The stacked ``np.sin`` is the build caveat named once in DESIGN.md
    §7: elementwise ``np.sin`` gives the same bits at every array length
    on the builds this project tests.
    """
    inside: list[int] = []
    rows: list[tuple] = []
    for k, (machine, held) in enumerate(zip(machines, levels.tolist())):
        segment = machine.next_segment(n_ticks, held)
        phase, work_into_phase, work_per_tick, seg_ticks = segment
        if phase is None or seg_ticks != n_ticks:
            spans: list = []
            machine.finish_window(segment, n_ticks, held, spans)
            _fill_spans(spans, activity_out[k], core_fraction_out[k])
            continue
        inside.append(k)
        oscillates = phase.oscillates
        # A flat row's wave has amplitude 0 and a placeholder period.
        rows.append((
            work_into_phase,
            work_per_tick,
            phase.core_fraction,
            phase.activity,
            phase.osc_amplitude if oscillates else 0.0,
            phase.osc_period_s if oscillates else 1.0,
        ))
    if not inside:
        return
    # Every row inside: write through a view instead of a gather.
    index = inside if len(inside) < len(machines) else slice(None)
    columns = np.array(rows)
    # The one-row grid `wip + wpt * (arange + 1.0)`, one row per machine:
    # the tick numbers 1.0 .. n_ticks are exact either way, and the add
    # commutes.
    work_times = columns[:, 1:2] * np.arange(1.0, n_ticks + 1.0)
    work_times += columns[:, 0:1]
    activity_out[index] = oscillating_activity(
        columns[:, 3:4], columns[:, 4:5], columns[:, 5:6], work_times
    )
    core_fraction_out[index] = columns[:, 2:3]


class CursorFleet:
    """The phase cursors of a wide lock-step fleet, held in ``(B,)`` arrays.

    Built from ``machines`` and kept while they run lock-step.  Each row's
    phase index, work into the phase, work done, ``time_s`` and
    ``completed_at_s`` live here, not on its machine, until
    :meth:`write_back` (or :meth:`keep`, for the rows it drops) brings the
    machines up to date.  :meth:`advance` does what
    :func:`activity_profiles` does, and every row ends up exactly as
    ``machines[k].activity_profile`` would leave it, but a row whose window
    stays inside one phase, or coasts after completion, takes no Python
    step of its own:

    * the progress rate is :func:`~repro.workloads.phases.throttled_rate`
      of a gathered :meth:`~repro.workloads.Phase.frequency_speedup`,
      tabulated per phase and DVFS level by that method itself
      (:class:`~repro.machine.LevelTable`);
    * the rest of :meth:`SimulatedMachine.next_segment` (the ticks left in
      the phase, the work and clock updates and the ``1e-9`` boundary
      test) runs elementwise in its order, and the profile is the shared
      work-time grid of :func:`activity_profiles`.

    Rows that cross a phase boundary inside the window, and rows whose
    phase overrides :meth:`~repro.workloads.Phase.progress_rate`, finish
    the window through their machine's own ``activity_profile`` (the
    scalar oracle), their state written back first and read in after.
    """

    def __init__(self, machines: "list[SimulatedMachine]") -> None:
        self.machines = list(machines)
        self.tick_s = self.machines[0].tick_s
        freq_max_ghz = self.machines[0].spec.freq_max_ghz
        self.phase_index = np.array(
            [machine._phase_index for machine in self.machines], dtype=np.intp
        )
        self.work_into_phase = np.array(
            [machine._work_into_phase for machine in self.machines], dtype=float
        )
        self.work_done = np.array([machine.work_done for machine in self.machines], dtype=float)
        self.time_s = np.array([machine.time_s for machine in self.machines], dtype=float)
        self.completed_at_s = np.array(
            [machine.completed_at_s for machine in self.machines], dtype=float
        )
        # One slot per phase of every row, row after row.
        phases = [phase for machine in self.machines for phase in machine.workload.phases]
        counts = [len(machine.workload.phases) for machine in self.machines]
        self.n_phases = np.array(counts, dtype=np.intp)
        self.first_slot = np.cumsum([0] + counts[:-1], axis=0).astype(np.intp)
        # Per slot: the phase's scalars (a flat phase as amplitude 0 with a
        # placeholder period), its boundary test's threshold and whether
        # its rate is the base class's.
        self._phases = np.array([
            (
                phase.work_units,
                phase.work_units - 1e-9,
                phase.core_fraction,
                phase.activity,
                phase.osc_amplitude if phase.oscillates else 0.0,
                phase.osc_period_s if phase.oscillates else 1.0,
                type(phase).progress_rate is Phase.progress_rate,
            )
            for phase in phases
        ], dtype=float).reshape(len(phases), 7)
        self._speedups = LevelTable([
            lambda freq_ghz, phase=phase: phase.frequency_speedup(freq_ghz / freq_max_ghz)
            for phase in phases
        ])
        self._grid = np.empty(0)
        self._update_phases()

    @property
    def completed(self) -> np.ndarray:
        """Whether each row's workload has completed."""
        return self.phase_index >= self.n_phases

    def _update_phases(self) -> None:
        """Gather each row's current-phase columns after a phase change."""
        self._slot = self.first_slot + np.minimum(self.phase_index, self.n_phases - 1)
        columns = self._phases[self._slot]
        self._work_units = columns[:, 0]
        self._limit = columns[:, 1]
        self._core_fraction = columns[:, 2:3]
        self._wave = (columns[:, 3:4], columns[:, 4:5], columns[:, 5:6])
        coasting = self.completed
        self._coasting = coasting if np.count_nonzero(coasting) else None
        self._runnable = ~coasting & (columns[:, 6] > 0.0)

    def advance(
        self,
        n_ticks: int,
        levels: np.ndarray,
        activity_out: np.ndarray,
        core_fraction_out: np.ndarray,
    ) -> None:
        """Advance every row ``n_ticks`` at its ``(B, 3)`` levels and fill its profile."""
        freq = self._speedups.columns(levels[:, 0])
        speedup = self._speedups.values[self._slot, freq]
        work_per_tick = throttled_rate(speedup, levels[:, 1], levels[:, 2]) * self.tick_s
        start = self.work_into_phase
        ticks_in_phase = np.ceil((self._work_units - start) / work_per_tick - 1e-12)
        inside = self._runnable & (ticks_in_phase >= n_ticks)
        if self._grid.size != n_ticks:
            self._grid = np.arange(n_ticks) + 1.0
        # The one-row grid `wip + wpt * (arange + 1.0)`, one row per machine.
        work_times = start[:, None] + work_per_tick[:, None] * self._grid
        activity_out[:] = oscillating_activity(*self._wave, work_times)
        core_fraction_out[:] = self._core_fraction

        advanced = work_per_tick * n_ticks
        end = start + advanced
        slow: list = []
        if np.count_nonzero(inside) == inside.size:
            self.time_s = self.time_s + n_ticks * self.tick_s
            self.work_done = self.work_done + advanced
            self.work_into_phase = end
            ended = end >= self._limit
        else:
            coasting = self._coasting
            moved = inside if coasting is None else inside | coasting
            if coasting is not None:
                activity_out[coasting] = 0.0
                core_fraction_out[coasting] = 0.0
            self.time_s = np.where(moved, self.time_s + n_ticks * self.tick_s, self.time_s)
            self.work_done = np.where(inside, self.work_done + advanced, self.work_done)
            self.work_into_phase = np.where(inside, end, start)
            ended = inside & (end >= self._limit)
            slow = np.flatnonzero(~moved).tolist()
        changed = bool(slow)
        if np.count_nonzero(ended):
            changed = True
            self.work_into_phase = np.where(ended, 0.0, self.work_into_phase)
            self.phase_index = self.phase_index + ended
            finished = ended & self.completed & ~np.isfinite(self.completed_at_s)
            self.completed_at_s = np.where(finished, self.time_s, self.completed_at_s)
        for k in slow:
            self.write_back([k])
            machine = self.machines[k]
            machine.activity_profile(
                n_ticks, levels[k].tolist(), activity_out[k], core_fraction_out[k]
            )
            self.phase_index[k] = machine._phase_index
            self.work_into_phase[k] = machine._work_into_phase
            self.work_done[k] = machine.work_done
            self.time_s[k] = machine.time_s
            self.completed_at_s[k] = machine.completed_at_s
        if changed:
            self._update_phases()

    def write_back(self, rows: "list[int] | None" = None) -> None:
        """Bring the machines of ``rows`` (default: all) up to date."""
        for k in range(len(self.machines)) if rows is None else rows:
            machine = self.machines[k]
            machine._phase_index = int(self.phase_index[k])
            machine._work_into_phase = float(self.work_into_phase[k])
            machine.work_done = float(self.work_done[k])
            machine.time_s = float(self.time_s[k])
            machine.completed_at_s = float(self.completed_at_s[k])

    def keep(self, rows: "list[int]") -> None:
        """Keep only ``rows`` (ascending positions), writing the others back."""
        kept = set(rows)
        self.write_back([k for k in range(len(self.machines)) if k not in kept])
        self.machines = [self.machines[k] for k in rows]
        for name in (
            "phase_index", "work_into_phase", "work_done", "time_s", "completed_at_s",
            "n_phases", "first_slot",
        ):
            setattr(self, name, getattr(self, name)[rows])
        self._update_phases()
