"""Figure 13: effectiveness of the formal controller.

Compares the distribution of power values in (a) the gaussian-sinusoid mask
targets and (b) the power actually measured from the machine, averaged over
runs per application.  The controller is effective when the two box-plot
families match — tracking makes measured power look like the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import BoxStats, average_traces, box_stats, distribution_overlap
from ..defenses.designs import DefenseFactory
from ..machine import SYS1, PlatformSpec
from .common import experiment_apps, make_factory, record_traces
from .config import ExperimentScale, get_scale

__all__ = ["Fig13Result", "run"]


@dataclass(frozen=True)
class Fig13Result:
    #: Per app: box stats of the averaged mask targets.
    mask_boxes: dict[str, BoxStats]
    #: Per app: box stats of the averaged measured power.
    measured_boxes: dict[str, BoxStats]
    #: Per app: histogram overlap between mask and measured distributions.
    overlap: dict[str, float]
    #: Mean per-interval |target - measured| over all runs, watts.
    mean_tracking_error_w: float
    #: ... relative to the mean target level.
    relative_tracking_error: float

    def table(self) -> str:
        lines = [
            f"{'app':<16}{'mask median':>12}{'meas median':>12}{'overlap':>9}"
        ]
        for app in self.mask_boxes:
            lines.append(
                f"{app:<16}{self.mask_boxes[app].median:>12.2f}"
                f"{self.measured_boxes[app].median:>12.2f}{self.overlap[app]:>9.2f}"
            )
        lines.append(
            f"mean tracking error: {self.mean_tracking_error_w:.2f} W "
            f"({self.relative_tracking_error:.1%})"
        )
        return "\n".join(lines)


def run(
    scale: "str | ExperimentScale" = "default",
    seed: int = 0,
    spec: PlatformSpec = SYS1,
    factory: DefenseFactory | None = None,
) -> Fig13Result:
    scale = get_scale(scale)
    if factory is None:
        factory = make_factory(spec, scale, seed=seed)
    apps = experiment_apps(scale)

    mask_boxes: dict[str, BoxStats] = {}
    measured_boxes: dict[str, BoxStats] = {}
    overlap: dict[str, float] = {}
    errors = []
    targets = []
    for app in apps:
        traces = record_traces(
            spec, app, factory, "maya_gs",
            n_runs=scale.average_runs, duration_s=scale.duration_s,
            seed=seed, tag="fig13",
        )
        valid = [np.isfinite(t.target_w) for t in traces]
        mask_avg = average_traces([t.target_w[v] for t, v in zip(traces, valid)])
        meas_avg = average_traces([t.measured_w[v] for t, v in zip(traces, valid)])
        mask_boxes[app] = box_stats(mask_avg)
        measured_boxes[app] = box_stats(meas_avg)
        overlap[app] = distribution_overlap(mask_avg, meas_avg)
        for t in traces:
            err = t.tracking_error()
            errors.append(err)
            targets.append(t.target_w[np.isfinite(t.target_w)])

    all_err = np.concatenate(errors)
    all_tgt = np.concatenate(targets)
    return Fig13Result(
        mask_boxes=mask_boxes,
        measured_boxes=measured_boxes,
        overlap=overlap,
        mean_tracking_error_w=float(all_err.mean()),
        relative_tracking_error=float(all_err.mean() / all_tgt.mean()),
    )
