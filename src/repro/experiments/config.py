"""Shared experiment configuration: scales and defaults.

Every experiment module accepts an :class:`ExperimentScale`.  ``smoke`` is
sized for CI (tens of seconds per figure), ``default`` regenerates every
figure on a laptop in minutes, and ``full`` approaches the paper's data
volumes (hours).  Accuracies are compared as *shape* — ordering of the
defenses and distance from chance — which is stable from ``default`` up.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade experiment fidelity for runtime."""

    name: str
    #: Traces recorded per class for the ML attacks.
    runs_per_class: int
    #: Recording length of each attack trace, seconds.
    duration_s: float
    #: Classified-segment length and stride, seconds.
    segment_duration_s: float
    segment_stride_s: float
    #: Applications used for the Figure 6/7/10-14 experiments (the first
    #: ``n_apps`` of the paper's 11 labels).
    n_apps: int
    #: Runs averaged for trace-averaging figures (7, 10, 15).
    average_runs: int
    #: MLP budget.
    mlp_hidden: tuple[int, ...]
    mlp_epochs: int
    #: System-identification excitation intervals per training app.
    sysid_intervals: int


SCALES = {
    "smoke": ExperimentScale(
        name="smoke",
        runs_per_class=18,
        duration_s=16.0,
        segment_duration_s=12.0,
        segment_stride_s=1.5,
        n_apps=4,
        average_runs=12,
        mlp_hidden=(128, 64),
        mlp_epochs=50,
        sysid_intervals=400,
    ),
    "default": ExperimentScale(
        name="default",
        runs_per_class=32,
        duration_s=20.0,
        segment_duration_s=16.0,
        segment_stride_s=2.0,
        n_apps=11,
        average_runs=40,
        mlp_hidden=(256, 128),
        mlp_epochs=80,
        sysid_intervals=600,
    ),
    "full": ExperimentScale(
        name="full",
        runs_per_class=120,
        duration_s=40.0,
        segment_duration_s=30.0,
        segment_stride_s=2.0,
        n_apps=11,
        average_runs=200,
        mlp_hidden=(512, 256),
        mlp_epochs=150,
        sysid_intervals=1200,
    ),
}


def get_scale(scale: "str | ExperimentScale") -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise KeyError(f"unknown scale {scale!r}; known: {sorted(SCALES)}") from None
