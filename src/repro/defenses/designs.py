"""The five designs of Table V.

* ``Baseline`` — high-performance insecure system: max frequency, no idle
  injection, no balloon.
* ``NoisyBaseline`` — a new random (DVFS, idle, balloon) triple per run,
  fixed for the whole execution.
* ``RandomInputs`` — the triple changes randomly at runtime, each value
  held for a random duration.
* ``MayaConstant`` — Maya's formal controller tracking a constant target.
* ``MayaGS`` — the proposal: formal controller + gaussian-sinusoid mask.
"""

from __future__ import annotations

import numpy as np

from ..core.config import MayaConfig
from ..core.maya import MayaDesign, MayaInstance, build_maya_design
from ..machine import ActuatorBank, ActuatorSettings, PlatformSpec, SimulatedMachine
from ..masks import MASK_FAMILIES
from .base import Defense

__all__ = [
    "Baseline",
    "NoisyBaseline",
    "RandomInputs",
    "MayaDefense",
    "DESIGN_NAMES",
    "DefenseFactory",
    "maya_design_name",
]

#: Table V, in the paper's order.
DESIGN_NAMES = ("baseline", "noisy_baseline", "random_inputs", "maya_constant", "maya_gs")


def maya_design_name(mask_family: str) -> str:
    """The defense name of Maya deploying ``mask_family`` (``maya_gs`` for GS)."""
    return "maya_gs" if mask_family == "gaussian_sinusoid" else f"maya_{mask_family}"


#: Maya defense name -> mask family, for every mask family.
_MAYA_FAMILIES = {maya_design_name(family): family for family in MASK_FAMILIES}


class Baseline(Defense):
    """High-performance insecure system without added noise."""

    name = "baseline"
    constant_settings = True

    def prepare(self, machine: SimulatedMachine, rng: np.random.Generator) -> None:
        self._settings = machine.bank.max_performance()

    def initial_settings(self) -> ActuatorSettings:
        return self._settings

    def decide(self, measured_w: float) -> ActuatorSettings:
        return self._settings


class NoisyBaseline(Defense):
    """One random actuation triple per run, held for the whole execution."""

    name = "noisy_baseline"
    constant_settings = True

    def prepare(self, machine: SimulatedMachine, rng: np.random.Generator) -> None:
        self._settings = machine.bank.random_settings(rng)

    def initial_settings(self) -> ActuatorSettings:
        return self._settings

    def decide(self, measured_w: float) -> ActuatorSettings:
        return self._settings


class RandomInputs(Defense):
    """Randomly changing DVFS/idle/balloon levels at runtime.

    Each triple is held for a random stretch (60-300 ms at the 20 ms
    interval) before a new one is drawn, mirroring Table V's description
    and the dense noise texture visible in Figure 11b.
    """

    name = "random_inputs"

    def __init__(self, hold_intervals: tuple[int, int] = (3, 15)) -> None:
        super().__init__()
        self.hold_intervals = hold_intervals

    def prepare(self, machine: SimulatedMachine, rng: np.random.Generator) -> None:
        self._bank = machine.bank
        self._rng = rng
        self._hold_left = 0
        self._settings = self._draw()

    def _draw(self) -> ActuatorSettings:
        self._hold_left = int(
            self._rng.integers(self.hold_intervals[0], self.hold_intervals[1] + 1)
        )
        return self._bank.random_settings(self._rng)

    def initial_settings(self) -> ActuatorSettings:
        return self._settings

    def decide(self, measured_w: float) -> ActuatorSettings:
        self._hold_left -= 1
        if self._hold_left <= 0:
            self._settings = self._draw()
        return self._settings


class MayaDefense(Defense):
    """Maya with any mask family (``maya_constant``, ``maya_gs``, ...)."""

    def __init__(self, design: MayaDesign) -> None:
        super().__init__()
        self.design = design
        self.name = maya_design_name(design.config.mask_family)
        self._instance: MayaInstance | None = None

    def prepare(self, machine: SimulatedMachine, rng: np.random.Generator) -> None:
        if machine.spec.name != self.design.spec.name:
            raise ValueError(
                f"design built for {self.design.spec.name}, machine is {machine.spec.name}"
            )
        self._instance = self.design.instantiate(rng)

    def initial_settings(self) -> ActuatorSettings:
        assert self._instance is not None, "prepare() must be called first"
        return self._instance.initial_settings()

    def decide(self, measured_w: float) -> ActuatorSettings:
        assert self._instance is not None, "prepare() must be called first"
        settings = self._instance.decide(measured_w)
        self.current_target_w = self._instance.current_target_w
        return settings

    def diagnostics(self) -> "dict | None":
        if self._instance is None:
            return None
        return self._instance.controller.diagnostics()

    @staticmethod
    def decide_fleet(
        defenses: "list[MayaDefense]", measured_w: "list[float]"
    ) -> "list[ActuatorSettings]":
        """Batched :meth:`decide` for a lock-step fleet of Maya defenses.

        Delegates to :meth:`MayaInstance.decide_fleet` (batched mask draw +
        one Equation-1 fleet step per design) and mirrors each defense's target
        bookkeeping, emitting exactly what B serial ``decide`` calls would.
        """
        instances = []
        for defense in defenses:
            assert defense._instance is not None, "prepare() must be called first"
            instances.append(defense._instance)
        settings = MayaInstance.decide_fleet(instances, measured_w)
        for defense, instance in zip(defenses, instances):
            defense.current_target_w = instance.current_target_w
        return settings


class DefenseFactory:
    """Builds fresh per-run defense instances for a platform.

    Maya designs (system ID + synthesis) are expensive, so the factory
    builds them once per platform and reuses them across runs — exactly the
    deployment model of the paper, where the controller matrices are fixed
    at design time and only the runtime state and mask stream are new.

    A factory is fully described by ``(spec, seed, design_overrides)``:
    ``design_overrides`` are factory-level :class:`MayaConfig` defaults
    (e.g. an :class:`ExperimentScale`'s ``sysid_intervals`` budget) merged
    under any per-call overrides.  The parallel execution layer
    (:mod:`repro.exec`) relies on this declarative description to rebuild
    an equivalent factory inside worker processes.
    """

    def __init__(
        self,
        spec: PlatformSpec,
        seed: int = 0,
        design_overrides: dict | None = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.design_overrides: dict = dict(design_overrides or {})
        self._designs: dict[str, MayaDesign] = {}

    def maya_design(self, mask_family: str, **config_overrides: object) -> MayaDesign:
        # Keyed by the *call-level* overrides only: factory-level defaults
        # are constant per instance, so they never disambiguate entries.
        key = mask_family + repr(sorted(config_overrides.items()))
        if key not in self._designs:
            merged = {**self.design_overrides, **config_overrides}
            config = MayaConfig(mask_family=mask_family, **merged)
            self._designs[key] = build_maya_design(self.spec, config, seed=self.seed)
        return self._designs[key]

    def create(self, design_name: str) -> Defense:
        """Instantiate one design by name.

        Besides the Table V designs, Maya resolves with every mask family
        (``maya_<family>``, see :func:`maya_design_name`), so ablations
        name their defense like any other job.
        """
        if design_name == "baseline":
            return Baseline()
        if design_name == "noisy_baseline":
            return NoisyBaseline()
        if design_name == "random_inputs":
            return RandomInputs()
        family = _MAYA_FAMILIES.get(design_name)
        if family is not None:
            return MayaDefense(self.maya_design(family))
        known = DESIGN_NAMES[:3] + tuple(_MAYA_FAMILIES)
        raise KeyError(f"unknown design {design_name!r}; known: {known}")
