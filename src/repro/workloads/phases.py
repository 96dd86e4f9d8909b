"""Phase-structured workload programs.

The attacks the paper studies succeed because applications have *structure*:
phases with distinct mean power, loops that imprint FFT peaks, and abrupt
change-points at phase boundaries.  A :class:`PhaseProgram` captures exactly
that structure as a sequence of :class:`Phase` records.

Work accounting: a phase's :attr:`Phase.work_units` is the wall-clock time
the phase takes on an unimpeded machine at the maximum DVFS level.  When the
defense lowers frequency, injects idle cycles, or schedules balloon threads,
progress slows and the program stretches — this is how execution-time
overheads (Figure 14) and the "cannot tell when the app finished" property
(Figure 11d) arise naturally in the simulation.

Loop periodicity is expressed in *work time*, so a loop that takes twice as
long under a slowdown also halves its apparent frequency, as on real
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Phase",
    "PhaseProgram",
    "jitter_program",
    "oscillating_activity",
    "throttled_rate",
]


@dataclass(frozen=True)
class Phase:
    """One execution phase of a workload."""

    name: str
    #: Seconds this phase takes at max frequency with no interference.
    work_units: float
    #: Base switching-activity level in [0, 1].
    activity: float
    #: Fraction of logical cores the phase occupies (0..1].
    core_fraction: float
    #: 0 = fully compute-bound, 1 = fully memory-bound.  Memory-bound work
    #: speeds up less when frequency rises.
    memory_intensity: float = 0.0
    #: Relative amplitude of the activity oscillation caused by the phase's
    #: main loop (0 disables), and its period in work-time seconds.
    osc_amplitude: float = 0.0
    osc_period_s: float = 0.0

    def __post_init__(self) -> None:
        if self.work_units <= 0:
            raise ValueError(f"phase {self.name!r}: work_units must be positive")
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError(f"phase {self.name!r}: activity must be in [0, 1]")
        if not 0.0 < self.core_fraction <= 1.0:
            raise ValueError(f"phase {self.name!r}: core_fraction must be in (0, 1]")
        if not 0.0 <= self.memory_intensity <= 1.0:
            raise ValueError(f"phase {self.name!r}: memory_intensity must be in [0, 1]")
        if self.osc_amplitude and self.osc_period_s <= 0:
            raise ValueError(f"phase {self.name!r}: oscillation needs a positive period")

    def progress_rate(self, freq_fraction: float, idle_frac: float, balloon_level: float) -> float:
        """Work-units completed per wall-clock second under the actuation.

        The :meth:`frequency_speedup` at ``freq_fraction``, slowed by idle
        injection and the balloon (:func:`throttled_rate`).
        """
        return throttled_rate(
            self.frequency_speedup(freq_fraction), idle_frac, balloon_level
        )

    def frequency_speedup(self, freq_fraction: float) -> float:
        """Relative progress rate at a fraction of the top DVFS frequency.

        Frequency scaling follows a memory-intensity-dependent exponent:
        compute-bound work scales ~linearly with f, memory-bound work is
        largely insensitive.  The lock-step phase cursor tabulates it per
        frequency level (:class:`repro.machine.CursorFleet`).
        """
        return freq_fraction ** (1.0 - 0.7 * self.memory_intensity)

    @property
    def oscillates(self) -> bool:
        """False when the phase's activity is flat (no loop oscillation)."""
        return not abs(self.osc_amplitude) < 1e-12

    def activity_at(self, work_time: np.ndarray) -> np.ndarray:
        """Switching activity as a function of work-time into the phase."""
        work_time = np.asarray(work_time, dtype=float)
        if not self.oscillates:
            return np.full(work_time.shape, self.activity)
        return oscillating_activity(
            self.activity, self.osc_amplitude, self.osc_period_s, work_time
        )


def throttled_rate(speedup, idle_frac, balloon_level):
    """The progress rate left of ``speedup`` under idle injection and the balloon.

    Idle injection removes cycles outright.  Balloon threads time-share the
    SMT contexts with the application; a fully-active balloon roughly
    halves application throughput.  The rate never drops below ``1e-6``.
    :meth:`Phase.progress_rate` calls it with scalars, the lock-step phase
    cursor with ``(R,)`` arrays; every operation is elementwise, so each
    element gets the scalar bits.
    """
    rate = speedup * (1.0 - idle_frac)
    rate = rate * (1.0 - 0.5 * balloon_level)
    if isinstance(rate, np.ndarray):
        return np.maximum(rate, 1e-6)
    return max(rate, 1e-6)


def oscillating_activity(activity, amplitude, period_s, work_time: np.ndarray) -> np.ndarray:
    """The activity of an oscillating phase at ``work_time``.

    :meth:`Phase.activity_at` calls it with one phase's scalars; the
    lock-step phase cursor (:func:`repro.machine.activity_profiles`) with
    ``(R, 1)`` columns over an ``(R, ticks)`` work-time grid.  Every
    operation is elementwise, so each row gets the one-phase bits.
    """
    wave = np.sin(2.0 * np.pi * work_time / period_s)
    # np.maximum/np.minimum clip like np.clip up to the sign of a zero,
    # which the power sum this activity feeds cannot see.
    return np.minimum(np.maximum(activity * (1.0 + amplitude * wave), 0.0), 1.0)


@dataclass(frozen=True)
class PhaseProgram:
    """A named workload: an ordered sequence of phases."""

    name: str
    phases: tuple[Phase, ...]
    #: Free-form family tag ("parsec", "video", "browser", "microbench").
    family: str = "generic"

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a program needs at least one phase")
        object.__setattr__(self, "phases", tuple(self.phases))

    @property
    def total_work(self) -> float:
        return float(sum(p.work_units for p in self.phases))

    def phase_boundaries(self) -> np.ndarray:
        """Cumulative work at the end of each phase."""
        return np.cumsum([p.work_units for p in self.phases], axis=0)

    def phase_at(self, work_done: float) -> tuple[int, float]:
        """Locate ``work_done`` in the program.

        Returns ``(phase_index, work_into_phase)``; if the program has
        completed, returns ``(len(phases), 0.0)``.
        """
        remaining = work_done
        for index, phase in enumerate(self.phases):
            if remaining < phase.work_units:
                return index, remaining
            remaining -= phase.work_units
        return len(self.phases), 0.0

    def nominal_duration_s(self) -> float:
        """Wall-clock duration on an unimpeded machine."""
        return self.total_work

    def jittered(self, rng: np.random.Generator, strength: float = 0.08) -> "PhaseProgram":
        """A run-to-run perturbed copy of this program.

        Real executions never repeat exactly: OS scheduling, input data and
        cache state shift phase durations and loop rates by several percent
        between runs.  Each phase's work, loop period and activity are
        perturbed log-normally with relative spread ``strength`` (durations
        and periods) and ``strength/3`` (activity).
        """
        return jitter_program(self, rng, strength)

    def describe(self) -> str:
        lines = [f"{self.name} ({self.family}): {len(self.phases)} phases, "
                 f"{self.total_work:.1f}s nominal"]
        for phase in self.phases:
            lines.append(
                f"  - {phase.name}: {phase.work_units:.1f}s, act={phase.activity:.2f}, "
                f"cores={phase.core_fraction:.2f}, mem={phase.memory_intensity:.2f}"
            )
        return "\n".join(lines)


def jitter_program(
    program: PhaseProgram, rng: np.random.Generator, strength: float = 0.08
) -> PhaseProgram:
    """Perturb a program's timing the way run-to-run variation does."""
    if strength < 0:
        raise ValueError("strength must be non-negative")
    if strength == 0:
        return program
    phases = []
    for phase in program.phases:
        duration_factor = float(np.exp(rng.normal(0.0, strength)))
        period_factor = float(np.exp(rng.normal(0.0, strength)))
        activity_factor = float(np.exp(rng.normal(0.0, strength / 3.0)))
        phases.append(
            Phase(
                name=phase.name,
                work_units=phase.work_units * duration_factor,
                activity=float(np.clip(phase.activity * activity_factor, 0.0, 1.0)),
                core_fraction=phase.core_fraction,
                memory_intensity=phase.memory_intensity,
                osc_amplitude=phase.osc_amplitude,
                osc_period_s=phase.osc_period_s * period_factor,
            )
        )
    return PhaseProgram(name=program.name, phases=tuple(phases), family=program.family)
