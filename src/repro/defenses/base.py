"""Common interface of the five designs compared in Table V.

A :class:`Defense` instance lives for exactly one execution (one trace).
The session loop (:mod:`repro.core.runtime`) calls :meth:`initial_settings`
once and then :meth:`decide` after each control interval with the power it
just measured.  ``current_target_w`` exposes the mask value so traces can
log it (NaN for designs with no target).
"""

from __future__ import annotations

import abc

import numpy as np

from ..machine import ActuatorSettings, SimulatedMachine

__all__ = ["Defense", "decide_batch"]


class Defense(abc.ABC):
    """Per-run defense instance."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: True when, after :meth:`prepare`, every :meth:`decide` returns the
    #: same settings regardless of the measurement, consumes no RNG, and
    #: leaves ``current_target_w``/:meth:`diagnostics` untouched.  The
    #: lock-step backend uses this to evaluate whole sessions in one shot
    #: instead of interval-by-interval.
    constant_settings: bool = False

    def __init__(self) -> None:
        self.current_target_w = float("nan")

    @abc.abstractmethod
    def prepare(self, machine: SimulatedMachine, rng: np.random.Generator) -> None:
        """Bind this instance to a machine and its per-run randomness."""

    @abc.abstractmethod
    def initial_settings(self) -> ActuatorSettings:
        """Settings applied during the first control interval."""

    @abc.abstractmethod
    def decide(self, measured_w: float) -> ActuatorSettings:
        """Settings for the next interval, given the last measurement."""

    def diagnostics(self) -> "dict | None":
        """Controller-internal state of the last :meth:`decide`, if any.

        Telemetry polls this after each interval; open-loop designs return
        None.  The dict contains plain ints only — the defense never sees
        or stores telemetry objects (the out-of-band invariant, MAYA032).
        """
        return None


def decide_batch(defenses, measured_w) -> list:
    """Decide one interval for a lock-step fleet of per-session defenses.

    Maya instances are routed through :meth:`MayaDefense.decide_fleet`,
    which draws all mask targets through the batched mask evaluation hook
    and then advances the Equation-1 update of every row sharing a design
    in one :meth:`MatrixController.step_fleet
    <repro.control.MatrixController.step_fleet>` call; every other
    defense falls back to its own :meth:`Defense.decide`.  Each defense
    consumes exactly the per-session values it would see serially, so the
    emitted settings are identical to B independent ``decide`` calls.
    """
    from .designs import MayaDefense

    settings: list = [None] * len(defenses)
    maya_indices = [
        index for index, defense in enumerate(defenses)
        if isinstance(defense, MayaDefense)
    ]
    if maya_indices:
        fleet_settings = MayaDefense.decide_fleet(
            [defenses[index] for index in maya_indices],
            [float(measured_w[index]) for index in maya_indices],
        )
        for index, decided in zip(maya_indices, fleet_settings):
            settings[index] = decided
    for index, defense in enumerate(defenses):
        if settings[index] is None:
            settings[index] = defense.decide(float(measured_w[index]))
    return settings
