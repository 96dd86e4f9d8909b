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

from ..control import ControllerFleet
from ..core.config import MayaConfig
from ..core.maya import MayaDesign, MayaInstance, build_maya_design
from ..machine import (
    ActuatorBank,
    ActuatorSettings,
    JointLevels,
    PlatformSpec,
    SimulatedMachine,
)
from ..masks import MASK_FAMILIES
from .base import Defense

__all__ = [
    "Baseline",
    "NoisyBaseline",
    "RandomInputs",
    "MayaDefense",
    "DESIGN_NAMES",
    "DefenseFactory",
    "DefenseFleet",
    "is_design_name",
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


#: The designs without a controller, by name.
_OPEN_LOOP = {
    "baseline": Baseline,
    "noisy_baseline": NoisyBaseline,
    "random_inputs": RandomInputs,
}


#: Every name :meth:`DefenseFactory.create` resolves.
_KNOWN_DESIGNS = (*_OPEN_LOOP, *_MAYA_FAMILIES)


def is_design_name(design_name: str) -> bool:
    """Whether :meth:`DefenseFactory.create` knows ``design_name``.

    A lookup only: it builds no design.
    """
    return design_name in _KNOWN_DESIGNS


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
        open_loop = _OPEN_LOOP.get(design_name)
        if open_loop is not None:
            return open_loop()
        family = _MAYA_FAMILIES.get(design_name)
        if family is not None:
            return MayaDefense(self.maya_design(family))
        raise KeyError(f"unknown design {design_name!r}; known: {_KNOWN_DESIGNS}")


class DefenseFleet:
    """The decisions of a lock-step fleet of prepared defenses.

    Built once per lock-step call and kept until its last row retires.
    A decision is a joint level index into ``levels``
    (:class:`~repro.machine.JointLevels`), whose grid rows are the
    commands a Maya controller step returns.  Maya rows are grouped by
    controller design; each group keeps its Equation-1 state in one
    :class:`~repro.control.ControllerFleet`, whose commands pass through
    as they are, and its mask targets in a ``(G, n)`` block that
    :meth:`draw` fills ahead (the mask never sees a measurement).  Every
    other defense runs its own :meth:`Defense.decide`, whose settings, like
    every row's initial settings, ``levels`` indexes (an off-grid triple
    is one more row).  Row ``k`` consumes exactly its own state and RNG
    streams, so it gets the settings ``defenses[k].decide(measured_w[k])``
    would return.

    The controllers, ``current_target_w`` and diagnostics of Maya rows are
    brought up to date only by :meth:`write_back`, which :meth:`keep` calls
    for the rows it drops.
    """

    def __init__(self, defenses: "list[Defense]", levels: JointLevels) -> None:
        self.defenses = list(defenses)
        self.levels = levels
        #: The ``(B,)`` joint level indices in force: initial settings, then decisions.
        self.index = np.array(
            [levels.index(defense.initial_settings()) for defense in self.defenses],
            dtype=np.intp,
        )
        #: Each row's current target (the last drawn mask value; NaN before).
        self.targets_w = np.array(
            [defense.current_target_w for defense in self.defenses], dtype=float
        )
        groups: dict[int, list[int]] = {}
        open_loop: list[int] = []
        for index, defense in enumerate(self.defenses):
            if isinstance(defense, MayaDefense):
                assert defense._instance is not None, "prepare() must be called first"
                groups.setdefault(id(defense._instance.controller.design), []).append(index)
            else:
                open_loop.append(index)
        self._groups = [_MayaGroup(self.defenses, indices) for indices in groups.values()]
        for group in self._groups:
            if not np.array_equal(group.controllers.levels, levels.triples[:levels.n_grid]):
                raise ValueError("a Maya design's level grid differs from the fleet's")
        self._open_loop = open_loop
        self._column = 0
        self._solo = self._whole_group()

    def _whole_group(self) -> "_MayaGroup | None":
        """The one group, if it holds every row (so in fleet order)."""
        if len(self._groups) == 1 and not self._open_loop:
            return self._groups[0]
        return None

    def draw(self, n_intervals: int) -> None:
        """Draw every Maya row's mask targets for the next ``n_intervals``."""
        for group in self._groups:
            group.targets_w = np.array(
                [instance.mask.generate(n_intervals) for instance in group.instances]
            ).reshape(len(group.instances), n_intervals)
        self._column = 0

    def decide(self, measured_w: np.ndarray) -> np.ndarray:
        """The ``(B,)`` level indices of the next interval, given each row's measurement.

        Maya rows take the next column of their drawn targets.
        """
        column = self._column
        self._column += 1
        if self._solo is not None:
            # One group holds every row, in fleet order: nothing to scatter.
            self.targets_w = self._solo.targets_w[:, column]
            self.index = self._solo.controllers.step(self.targets_w, measured_w)
            return self.index
        index = np.empty_like(self.index)
        for group in self._groups:
            targets_w = group.targets_w[:, column]
            index[group.positions] = group.controllers.step(
                targets_w, measured_w[group.positions]
            )
            self.targets_w[group.positions] = targets_w
        for k in self._open_loop:
            defense = self.defenses[k]
            index[k] = self.levels.index(defense.decide(float(measured_w[k])))
            self.targets_w[k] = defense.current_target_w
        self.index = index
        return index

    def write_back(self, rows: "list[int] | None" = None) -> None:
        """Bring the defenses of ``rows`` (default: all) up to date."""
        wanted = None if rows is None else set(rows)
        for group in self._groups:
            members = [
                member for member, position in enumerate(group.positions.tolist())
                if wanted is None or position in wanted
            ]
            group.controllers.write_back(np.array(members, dtype=np.intp))
            for member in members:
                target_w = float(self.targets_w[group.positions[member]])
                instance = group.instances[member]
                instance.current_target_w = target_w
                self.defenses[group.positions[member]].current_target_w = target_w

    def keep(self, rows: "list[int]") -> None:
        """Keep only ``rows`` (ascending positions), writing the others back."""
        kept = set(rows)
        self.write_back([k for k in range(len(self.defenses)) if k not in kept])
        remap = np.full(len(self.defenses), -1, dtype=np.intp)
        remap[rows] = np.arange(len(rows))
        groups = []
        for group in self._groups:
            positions = remap[group.positions]
            members = np.flatnonzero(positions >= 0)
            if members.size:
                group.keep(members, positions[members])
                groups.append(group)
        self._groups = groups
        self._open_loop = [int(remap[k]) for k in self._open_loop if remap[k] >= 0]
        self._solo = self._whole_group()
        self.defenses = [self.defenses[k] for k in rows]
        self.index = self.index[rows]
        self.targets_w = self.targets_w[rows]


class _MayaGroup:
    """The Maya rows of a fleet that share one controller design."""

    def __init__(self, defenses: "list[Defense]", positions: "list[int]") -> None:
        #: The rows' positions in the fleet, ascending.
        self.positions = np.array(positions, dtype=np.intp)
        self.instances = [defenses[k]._instance for k in positions]
        self.controllers = ControllerFleet(
            [instance.controller for instance in self.instances]
        )
        #: Drawn mask targets, one row per member and one column per interval.
        self.targets_w = np.empty((len(positions), 0))

    def keep(self, members: np.ndarray, positions: np.ndarray) -> None:
        """Keep ``members`` (ascending), now at fleet ``positions``."""
        self.controllers.keep(members)
        self.instances = [self.instances[k] for k in members.tolist()]
        self.targets_w = self.targets_w[members]
        self.positions = positions
