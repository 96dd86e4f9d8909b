"""Figure 11: change-point detection on blackscholes under each defense.

The paper runs a change-point detector over single traces: with Noisy
Baseline, Random Inputs and Maya Constant the application's true phases
(sequential / parallel / sequential / post-completion idle) are recovered;
with Maya GS the detected change points are all artificial and the
application's completion time is invisible.

Metrics:

* ``recall`` — fraction of true phase boundaries with a detected change
  point within a tolerance, next to ``chance_hit``: the recall a random
  detector with the same detection density would score.  GS produces many
  detections, so only the *excess* over chance means anything.
* ``completion_score`` — the statistical visibility of the application's
  completion instant: the percentile of the local disruption (level shift
  or spike) at the completion time against random locations in the trace.
  A score >= 0.95 counts as "an attacker can tell when the app finished".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import pelt
from ..defenses.designs import DefenseFactory
from ..exec import SessionJob, run_sessions
from ..machine import SYS1, PlatformSpec
from .common import make_factory, sample_rapl
from .config import ExperimentScale, get_scale

__all__ = ["DefenseChangepoints", "Fig11Result", "DEFENSES", "run"]

DEFENSES = ("noisy_baseline", "random_inputs", "maya_constant", "maya_gs")

#: PELT penalty multiplier (on top of the 3 log n Gaussian-cost BIC) and
#: minimum segment length, tuned so the undefended trace yields roughly one
#: detection per true phase.
PENALTY_FACTOR = 8.0 / 3.0
MIN_SIZE = 25


@dataclass(frozen=True)
class DefenseChangepoints:
    defense: str
    detected_times_s: np.ndarray
    true_boundaries_s: np.ndarray
    completion_s: float
    recall: float
    chance_hit: float
    completion_score: float

    @property
    def completion_detected(self) -> bool:
        return self.completion_score >= COMPLETION_Z_THRESHOLD

    @property
    def excess_recall(self) -> float:
        return max(0.0, self.recall - self.chance_hit)


@dataclass(frozen=True)
class Fig11Result:
    workload: str
    per_defense: dict[str, DefenseChangepoints]

    def table(self) -> str:
        lines = [
            f"{'design':<16}{'#det':>5}{'recall':>8}{'chance':>8}{'completion':>12}"
        ]
        for name, row in self.per_defense.items():
            lines.append(
                f"{name:<16}{row.detected_times_s.size:>5d}{row.recall:>8.2f}"
                f"{row.chance_hit:>8.2f}"
                f"{('visible' if row.completion_detected else 'hidden'):>12}"
            )
        return "\n".join(lines)


def _true_boundaries(trace, machine_workload) -> np.ndarray:
    """Wall-clock phase boundaries, reconstructed from the settings log.

    The workload advances at a rate that depends on the defense's
    actuation, so we integrate the progress rate over the recorded
    settings to find when each phase boundary was crossed.
    """
    boundaries_work = machine_workload.phase_boundaries()
    settings = trace.settings
    interval = trace.interval_s

    from ..machine import get_platform

    spec = get_platform(trace.platform)
    work = 0.0
    next_boundary = 0
    times = []
    phase_index = 0
    for k in range(settings.shape[0]):
        if phase_index >= len(machine_workload.phases):
            break
        phase = machine_workload.phases[phase_index]
        rate = phase.progress_rate(
            settings[k, 0] / spec.freq_max_ghz, settings[k, 1], settings[k, 2]
        )
        work += rate * interval
        while (
            next_boundary < boundaries_work.size
            and work >= boundaries_work[next_boundary]
        ):
            times.append((k + 1) * interval)
            next_boundary += 1
            phase_index += 1
            if phase_index >= len(machine_workload.phases):
                break
    return np.asarray(times)


#: Completion counts as visible when the post-completion power level sits
#: this many robust standard deviations outside the mid-execution windows.
COMPLETION_Z_THRESHOLD = 3.0


def _completion_score(samples: np.ndarray, interval_s: float, t_complete: float) -> float:
    """Statistical visibility of the application's completion.

    Z-score of the mean power *after* completion against the distribution
    of same-length window means *during* execution.  An undefended or
    randomized machine drops to its idle floor when the application exits
    (huge z); a controlled machine keeps filling the mask, so the
    post-completion level is indistinguishable from mid-execution (z ~ 0) —
    exactly the paper's "impossible to infer when the application
    completed" observation for Maya GS.
    """
    if not np.isfinite(t_complete):
        return 0.0
    w = max(int(round(2.0 / interval_s)), 4)
    index = int(round(t_complete / interval_s))
    if index + w + w // 4 > samples.size or index < 3 * w:
        return 0.0
    # Skip a quarter-window of post-exit transient before measuring.
    after = float(samples[index + w // 4:index + w // 4 + w].mean())
    positions = range(w, index - w, max(w // 2, 1))
    before_means = np.array([samples[p:p + w].mean() for p in positions])
    if before_means.size < 5:
        return 0.0
    center = float(np.median(before_means))
    scale = float(np.median(np.abs(before_means - center))) * 1.4826
    scale = max(scale, 0.05)
    return abs(after - center) / scale


def run(
    scale: "str | ExperimentScale" = "default",
    seed: int = 0,
    spec: PlatformSpec = SYS1,
    workload: str = "blackscholes",
    defenses: tuple[str, ...] = DEFENSES,
    factory: DefenseFactory | None = None,
    tolerance_s: float = 2.0,
    n_runs: int = 3,
) -> Fig11Result:
    """Run the change-point analysis; metrics are aggregated over
    ``n_runs`` independent executions (median completion score, mean
    recall) so a single coincidental mask jump near the completion time
    cannot flip the verdict."""
    scale = get_scale(scale)
    if factory is None:
        factory = make_factory(spec, scale, seed=seed)

    # Every session first, so that they share lock-step chunks; then PELT.
    jobs = [
        SessionJob.for_factory(
            factory, workload=workload, defense=defense, spec=spec,
            seed=seed, run_id=("fig11", defense, run_index),
            duration_s=None, max_duration_s=200.0, tail_s=6.0,
        )
        for defense in defenses
        for run_index in range(n_runs)
    ]
    traces = run_sessions(jobs, workers=scale.workers, factory=factory)

    per_defense: dict[str, DefenseChangepoints] = {}
    for defense_index, defense in enumerate(defenses):
        recalls = []
        chances = []
        scores = []
        first_detected = np.empty(0)
        first_true = np.empty(0)
        first_completion = float("nan")
        for run_index in range(n_runs):
            job = jobs[defense_index * n_runs + run_index]
            trace = traces[defense_index * n_runs + run_index]
            program = job.build_machine().workload  # post-jitter program
            sampled = sample_rapl(trace, seed, job.run_id)
            penalty = PENALTY_FACTOR * 3.0 * np.log(sampled.size)
            detected_s = (
                np.asarray(pelt(sampled, penalty=penalty, min_size=MIN_SIZE), dtype=float)
                * trace.interval_s
            )

            true_times = _true_boundaries(trace, program)
            interior = true_times[:-1] if true_times.size else true_times
            hits = sum(
                bool(detected_s.size and np.min(np.abs(detected_s - t)) <= tolerance_s)
                for t in interior
            )
            recalls.append(hits / max(interior.size, 1))
            density = detected_s.size / max(trace.duration_s, 1e-9)
            chances.append(1.0 - np.exp(-density * 2.0 * tolerance_s))
            scores.append(
                _completion_score(sampled, trace.interval_s, trace.completed_at_s)
            )
            if run_index == 0:
                first_detected = detected_s
                first_true = true_times
                first_completion = trace.completed_at_s

        per_defense[defense] = DefenseChangepoints(
            defense=defense,
            detected_times_s=first_detected,
            true_boundaries_s=first_true,
            completion_s=first_completion,
            recall=float(np.mean(recalls)),
            chance_hit=float(np.mean(chances)),
            completion_score=float(np.median(scores)),
        )
    return Fig11Result(workload=workload, per_defense=per_defense)
