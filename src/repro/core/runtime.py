"""Running one session: a machine under a defense, recorded as a trace.

The outer loop of Figure 2 -- every interval the machine runs with the
current actuator settings, the sensor reports the window's power, and the
defense decides the settings for the next interval -- lives in the
lock-step kernel (:mod:`repro.exec.batch`); :func:`run_session` runs it
for one session and returns the :class:`~repro.machine.trace.Trace` that
every experiment consumes.
"""

from __future__ import annotations

from ..defenses.base import Defense
from ..machine import SimulatedMachine, Trace
from ..workloads.phases import PhaseProgram

__all__ = ["run_session", "make_machine"]


def make_machine(
    spec,
    workload: PhaseProgram,
    seed: int,
    run_id: object,
    tick_s: float = 0.001,
    record_temperature: bool = False,
    workload_jitter: float = 0.08,
) -> SimulatedMachine:
    """Convenience constructor with the reproduction's seeding scheme."""
    return SimulatedMachine(
        spec,
        workload,
        seed=seed,
        run_id=run_id,
        tick_s=tick_s,
        record_temperature=record_temperature,
        workload_jitter=workload_jitter,
    )


def run_session(
    machine: SimulatedMachine,
    defense: Defense,
    seed: int = 0,
    run_id: object = 0,
    interval_s: float = 0.020,
    duration_s: float | None = None,
    max_duration_s: float = 600.0,
    tail_s: float = 2.0,
) -> Trace:
    """Execute one workload run under a defense and record the trace.

    * With ``duration_s`` set, the session runs for exactly that long — the
      workload may finish early (the machine then sits idle apart from the
      defense's own activity) or be cut off, as when an attacker records a
      fixed-length window.
    * With ``duration_s=None``, the session runs until the workload
      completes (plus ``tail_s`` of cool-down), capped at
      ``max_duration_s`` — the mode used to measure execution time.

    A one-row call of the lock-step kernel (:func:`repro.exec.batch.simulate`),
    which seeds the defense and its sensor from ``(seed, run_id)``.
    """
    from ..exec.batch import SessionRow, simulate

    row = SessionRow(
        machine,
        defense,
        seed=seed,
        run_id=run_id,
        interval_s=interval_s,
        duration_s=duration_s,
        max_duration_s=max_duration_s,
        tail_s=tail_s,
    )
    return simulate([row])[0]
