"""Shared helpers for the experiment modules."""

from __future__ import annotations

import numpy as np

from ..defenses.designs import DefenseFactory
from ..exec import SessionJob, record_run, run_sessions
from ..machine import PlatformSpec, RaplSensor, Trace, spawn
from ..workloads import PARSEC_APPS
from .config import ExperimentScale

__all__ = [
    "experiment_apps",
    "make_factory",
    "attack_scenario",
    "record_traces",
    "sample_rapl",
]


def experiment_apps(scale: ExperimentScale) -> tuple[str, ...]:
    """The applications used at this scale, spread across the power range.

    At reduced scales we keep label diversity by picking applications
    spread over the paper's power ordering rather than the first few
    labels (which happen to be similar).
    """
    if scale.n_apps >= len(PARSEC_APPS):
        return PARSEC_APPS
    spread_order = (
        "volrend", "water_nsquared", "canneal", "raytrace", "bodytrack",
        "vips", "streamcluster", "blackscholes", "freqmine",
        "water_spatial", "radiosity",
    )
    chosen = spread_order[: scale.n_apps]
    # Preserve the paper's label order among the chosen apps.
    return tuple(app for app in PARSEC_APPS if app in chosen)


def make_factory(spec: PlatformSpec, scale: ExperimentScale, seed: int = 0) -> DefenseFactory:
    """A defense factory whose Maya designs use the scale's sysid budget.

    The budget rides in ``design_overrides`` (not a monkeypatched method)
    so the factory stays declaratively describable — worker processes in
    :mod:`repro.exec` rebuild an equivalent factory from
    ``(spec, seed, design_overrides)`` alone.
    """
    return DefenseFactory(
        spec, seed=seed, design_overrides={"sysid_intervals": scale.sysid_intervals}
    )


def attack_scenario(
    name: str,
    spec: PlatformSpec,
    class_workloads: tuple[str, ...],
    defense: str,
    scale: ExperimentScale,
    seed: int = 0,
    **overrides: object,
):
    """Build an :class:`~repro.attacks.pipeline.AttackScenario` from the
    scale's defaults.

    The attack stack is imported here, not with this module, so a figure
    that runs no attack never loads it; the figures that call this import
    :mod:`repro.attacks` at module level themselves.
    """
    from ..attacks.mlp import MLPConfig
    from ..attacks.pipeline import AttackScenario

    params: dict = dict(
        name=name,
        spec=spec,
        class_workloads=class_workloads,
        defense=defense,
        runs_per_class=scale.runs_per_class,
        duration_s=scale.duration_s,
        segment_duration_s=scale.segment_duration_s,
        segment_stride_s=scale.segment_stride_s,
        mlp=MLPConfig(hidden_sizes=scale.mlp_hidden, max_epochs=scale.mlp_epochs),
        seed=seed,
    )
    params.update(overrides)
    return AttackScenario(**params)


def record_traces(
    spec: PlatformSpec,
    workload_name: str,
    factory: DefenseFactory,
    defense: str,
    n_runs: int,
    duration_s: float | None,
    seed: int = 0,
    tag: str = "traces",
    cache: object = None,
) -> list[Trace]:
    """Record ``n_runs`` executions of one workload under one defense.

    The runs are independent sessions, so they are submitted as declarative
    jobs to :func:`repro.exec.run_sessions` — parallel across
    ``REPRO_WORKERS`` processes and served from
    the content-addressed trace cache when one is enabled, with results
    bit-identical to running the jobs one at a time.
    """
    jobs = [
        SessionJob.for_factory(
            factory,
            spec=spec,
            workload=workload_name,
            defense=defense,
            seed=seed,
            run_id=(tag, defense, workload_name, run),
            duration_s=duration_s,
        )
        for run in range(n_runs)
    ]
    traces = run_sessions(jobs, cache=cache, factory=factory)
    # Bind the recorded group to its inputs in the run registry (no-op
    # unless REPRO_REGISTRY is on).
    record_run(
        kind="traces",
        name=f"{tag}/{defense}/{workload_name}",
        jobs=jobs,
        results={"n_runs": int(n_runs), "seed": int(seed)},
    )
    return traces


def sample_rapl(
    trace: Trace, seed: int, run_id: object, interval_s: float = 0.020
) -> np.ndarray:
    """Attacker's RAPL view of a recorded trace."""
    spec_rng = spawn(seed, "fig-sensor", trace.workload, trace.defense, run_id)
    from ..machine import get_platform

    sensor = RaplSensor(get_platform(trace.platform), spec_rng)
    return sensor.sample_trace(trace.power_w, trace.tick_s, interval_s)
