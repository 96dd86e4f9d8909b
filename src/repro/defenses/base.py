"""Common interface of the five designs compared in Table V.

A :class:`Defense` instance lives for exactly one execution (one trace).
The control loop (:mod:`repro.exec.batch`) calls :meth:`initial_settings`
once and then :meth:`decide` after each control interval with the power it
just measured (through :class:`~repro.defenses.DefenseFleet`, which
advances Maya rows sharing a design together).  ``current_target_w`` exposes the mask value so traces can
log it (NaN for designs with no target).
"""

from __future__ import annotations

import abc

import numpy as np

from ..machine import ActuatorSettings, SimulatedMachine

__all__ = ["Defense"]


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
