"""System identification of the computer (Section V-A).

We run a set of *training* applications on the simulated machine while
exciting the three inputs with a randomized hold sequence, log the
(normalized) inputs and measured power every control interval, and fit an
ARX model by least squares.  The paper uses PARSEC's swaptions and ferret
plus SPLASH-2x's barnes and raytrace; those four are modeled here as
dedicated training programs, distinct from the eleven applications the
attacks target.

Everything downstream of identification works in normalized coordinates:

* inputs are mapped into [0, 1] over each actuator's range and centered on
  the excitation operating point ``u_op``;
* power is divided by the platform's TDP and centered on ``y_op``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..machine import (
    ActuatorBank,
    JointLevels,
    PlatformSpec,
    RaplSensor,
    SimulatedMachine,
    batch_window_power,
    draw_noise,
    measure_windows,
    spawn,
)
from ..workloads.phases import Phase, PhaseProgram
from .arx import ArxModel, fit_arx_records
from .statespace import StateSpace

__all__ = [
    "PlantModel",
    "ExcitationRecord",
    "training_programs",
    "run_excitation",
    "identify_plant",
]


def training_programs() -> tuple[PhaseProgram, ...]:
    """The four system-identification training applications."""
    swaptions = PhaseProgram(
        name="swaptions",
        family="training",
        phases=(
            Phase("init", 2.0, 0.30, 0.20, memory_intensity=0.3),
            Phase("simulate", 40.0, 0.76, 1.00, memory_intensity=0.15,
                  osc_amplitude=0.08, osc_period_s=0.9),
        ),
    )
    ferret = PhaseProgram(
        name="ferret",
        family="training",
        phases=(
            Phase("load", 3.0, 0.35, 0.30, memory_intensity=0.6),
            Phase("segment", 10.0, 0.60, 0.90, memory_intensity=0.45,
                  osc_amplitude=0.2, osc_period_s=0.6),
            Phase("extract", 10.0, 0.68, 1.00, memory_intensity=0.35,
                  osc_amplitude=0.2, osc_period_s=0.4),
            Phase("rank", 18.0, 0.55, 0.80, memory_intensity=0.55,
                  osc_amplitude=0.15, osc_period_s=1.2),
        ),
    )
    barnes = PhaseProgram(
        name="barnes",
        family="training",
        phases=(
            Phase("tree_build", 4.0, 0.45, 0.60, memory_intensity=0.6),
            Phase("force_calc", 30.0, 0.72, 1.00, memory_intensity=0.3,
                  osc_amplitude=0.18, osc_period_s=1.5),
            Phase("update", 6.0, 0.50, 0.80, memory_intensity=0.5),
        ),
    )
    raytrace_train = PhaseProgram(
        name="raytrace_train",
        family="training",
        phases=(
            Phase("build", 3.0, 0.33, 0.25, memory_intensity=0.55),
            Phase("trace", 35.0, 0.70, 1.00, memory_intensity=0.25,
                  osc_amplitude=0.2, osc_period_s=0.35),
        ),
    )
    return (swaptions, ferret, barnes, raytrace_train)


@dataclass(frozen=True)
class ExcitationRecord:
    """Logged data of one training run: normalized inputs and outputs."""

    workload: str
    u_norm: np.ndarray  # (T, 3) in [0, 1]
    y_norm: np.ndarray  # (T,) power / TDP


@dataclass(frozen=True)
class PlantModel:
    """Identified dynamic model of one platform plus its normalization."""

    platform: str
    arx: ArxModel
    #: Operating point of the normalized inputs (excitation mean).
    u_op: np.ndarray
    #: Operating point of the normalized output (excitation mean).
    y_op: float
    #: Watts corresponding to normalized output 1.0 (the platform TDP).
    y_scale_w: float
    interval_s: float
    #: One-step-prediction R^2 on the identification data.
    fit_r2: float

    def statespace(self) -> StateSpace:
        """Deviation-form state-space realization of the ARX model."""
        return self.arx.to_statespace()

    def input_power_signs(self) -> np.ndarray:
        """Sign of each input's DC effect on power (+1 raises power)."""
        return np.sign(self.arx.dc_gain())

    def normalize_power(self, power_w: float | np.ndarray) -> np.ndarray | float:
        return np.asarray(power_w, dtype=float) / self.y_scale_w - self.y_op

    def denormalize_power(self, y_norm: float | np.ndarray) -> np.ndarray | float:
        return (np.asarray(y_norm, dtype=float) + self.y_op) * self.y_scale_w


def run_excitation(
    spec: PlatformSpec,
    workload: PhaseProgram,
    seed: int,
    n_intervals: int = 600,
    interval_s: float = 0.020,
    hold_range: tuple[int, int] = (1, 4),
) -> ExcitationRecord:
    """Excite the machine's inputs while one training app runs.

    Inputs are held at random levels for random 1-4 interval stretches
    (a PRBS-like excitation), which spreads energy over the frequency band
    the controller must operate in.  Nothing in the run reads the machine
    back, so it is evaluated as one record: the hold schedule is drawn
    first, each hold is one :meth:`~SimulatedMachine.walk` (the app restarts
    whenever it completes), and the whole record's power and counter reads
    are one :func:`~repro.machine.batch_window_power` call (intervals as
    rows, each at its hold's joint level index) and one
    :func:`~repro.machine.measure_windows` call.  Both are row-wise and
    the noise is drawn ahead in one :func:`~repro.machine.draw_noise`
    call, so the record equals stepping the run one interval at a time.
    """
    machine = SimulatedMachine(spec, workload, seed=seed, run_id=("sysid", workload.name))
    bank = machine.bank
    sensor = RaplSensor(spec, spawn(seed, "sysid-sensor", spec.name, workload.name))
    rng = spawn(seed, "sysid-excitation", spec.name, workload.name)
    ticks = int(round(interval_s / machine.tick_s))
    power_noise_w, counter_noise_w = draw_noise(
        [machine.power_model], [sensor], n_intervals, ticks
    )

    # The hold schedule, in the order an interval-by-interval run draws
    # it: one discarded setting, then each hold's setting and length.
    bank.random_settings(rng)
    held = []
    lengths = []
    remaining = n_intervals
    while remaining > 0:
        held.append(bank.random_settings(rng))
        lengths.append(min(int(rng.integers(hold_range[0], hold_range[1] + 1)), remaining))
        remaining -= lengths[-1]

    activity = np.empty((n_intervals, ticks))
    core_fraction = np.empty((n_intervals, ticks))
    start = 0
    for settings, length in zip(held, lengths):
        end = start + length
        while start < end:
            start += machine.walk(
                end - start, ticks, settings,
                activity[start:end].reshape(-1), core_fraction[start:end].reshape(-1),
            )
            if machine.completed:
                machine.reset()

    levels = JointLevels(bank)
    held_index = np.array([levels.index(settings) for settings in held], dtype=np.intp)
    index = np.repeat(held_index, lengths)
    power_w = batch_window_power(
        machine.power_model, activity, core_fraction, levels, index,
        power_noise_w.reshape(n_intervals, ticks),
    )
    y_rows = measure_windows(power_w[None], machine.tick_s, counter_noise_w)[0]
    u_rows = np.repeat(
        np.reshape([bank.normalize(settings) for settings in held], (-1, 3)), lengths, axis=0
    )
    return ExcitationRecord(workload.name, u_rows, y_rows / spec.tdp_w)


def identify_plant(
    spec: PlatformSpec,
    seed: int = 0,
    na: int = 4,
    nb: int = 3,
    n_intervals: int = 600,
    interval_s: float = 0.020,
    workloads: tuple[PhaseProgram, ...] | None = None,
) -> PlantModel:
    """Full identification pipeline: excite, log, fit, validate.

    With the defaults (na=4, nb=3, three inputs) the resulting controller
    has the 11-element state vector the paper reports.
    """
    if workloads is None:
        workloads = training_programs()
    records = [
        run_excitation(spec, workload, seed, n_intervals, interval_s)
        for workload in workloads
    ]

    u_all = np.vstack([record.u_norm for record in records])
    y_all = np.concatenate([record.y_norm for record in records])
    u_op = u_all.mean(axis=0)
    y_op = float(y_all.mean())

    deviation_records = [
        (record.y_norm - y_op, record.u_norm - u_op) for record in records
    ]
    arx = fit_arx_records(deviation_records, na=na, nb=nb)

    # One-step-prediction R^2 over all records, for a quick sanity check.
    history = max(na, nb - 1)
    target = np.concatenate([y_dev[history:] for y_dev, _ in deviation_records])
    residual = target - np.concatenate(
        [arx.predict_record(y_dev, u_dev) for y_dev, u_dev in deviation_records]
    )
    fit_r2 = 1.0 - float(residual @ residual) / max(float(target @ target), 1e-12)

    return PlantModel(
        platform=spec.name,
        arx=arx,
        u_op=u_op,
        y_op=y_op,
        y_scale_w=spec.tdp_w,
        interval_s=interval_s,
        fit_r2=fit_r2,
    )
