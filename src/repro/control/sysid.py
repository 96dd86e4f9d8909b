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
    the controller must operate in.  Neither noise term feeds back into
    the excitation, so the run's power and RAPL counter noise are drawn
    ahead in one :func:`~repro.machine.power.draw_noise` call, which draws
    what one window at a time would.
    """
    machine = SimulatedMachine(spec, workload, seed=seed, run_id=("sysid", workload.name))
    bank = machine.bank
    sensor = RaplSensor(spec, spawn(seed, "sysid-sensor", spec.name, workload.name))
    rng = spawn(seed, "sysid-excitation", spec.name, workload.name)
    ticks = int(round(interval_s / machine.tick_s))
    power_noise_w, counter_noise_w = draw_noise(
        [machine.power_model], [sensor], n_intervals, ticks
    )
    activity = np.empty((1, ticks))
    core_fraction = np.empty((1, ticks))

    u_rows = np.empty((n_intervals, 3))
    y_rows = np.empty(n_intervals)
    settings = bank.random_settings(rng)
    hold_left = 0
    for t in range(n_intervals):
        if hold_left == 0:
            settings = bank.random_settings(rng)
            levels = np.array([tuple(settings)])
            hold_left = int(rng.integers(hold_range[0], hold_range[1] + 1))
        hold_left -= 1
        machine.activity_profile(ticks, settings, activity[0], core_fraction[0])
        power_w = batch_window_power(
            machine.power_model, activity, core_fraction, levels,
            power_noise_w[:, t * ticks:(t + 1) * ticks],
        )
        u_rows[t] = bank.normalize(settings)
        y_rows[t] = measure_windows(power_w, machine.tick_s, counter_noise_w[:, t])[0]
        if machine.completed:
            machine.reset()
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
    sse = 0.0
    sst = 0.0
    for y_dev, u_dev in deviation_records:
        history = max(na, nb - 1)
        for t in range(history, y_dev.size):
            pred = arx.predict(
                y_dev[t - na:t][::-1], np.stack([u_dev[t - j] for j in range(nb)])
            )
            sse += (y_dev[t] - pred) ** 2
            sst += y_dev[t] ** 2
    fit_r2 = 1.0 - sse / max(sst, 1e-12)

    return PlantModel(
        platform=spec.name,
        arx=arx,
        u_op=u_op,
        y_op=y_op,
        y_scale_w=spec.tdp_w,
        interval_s=interval_s,
        fit_r2=fit_r2,
    )
