"""Maya: mask generator + formal controller (Figure 2).

:class:`MayaDesign` is the expensive, once-per-platform artifact: the
identified plant model and the synthesized controller matrices.  It is what
a vendor would ship in firmware.  :class:`MayaInstance` is the cheap runtime
object created per execution: a fresh controller state and a fresh mask
stream (each run *must* use new random numbers — Section IV-C notes Maya's
security rests on the attacker not being able to reproduce them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..control import (
    DesignedController,
    MatrixController,
    PlantModel,
    command_grid,
    design_controller,
    identify_plant,
)
from ..machine import ActuatorBank, ActuatorSettings, PlatformSpec
from ..masks import MaskGenerator, make_mask
from .config import MayaConfig

__all__ = ["MayaDesign", "MayaInstance", "build_maya_design"]


@dataclass(frozen=True, eq=False)
class MayaDesign:
    """Per-platform design artifact: plant model + controller matrices.

    Equality and hashing are by identity: the fields hold numpy arrays,
    whose element-wise ``==`` has no truth value.
    """

    spec: PlatformSpec
    config: MayaConfig
    plant: PlantModel
    controller: DesignedController
    mask_range_w: tuple[float, float]

    @cached_property
    def bank(self) -> ActuatorBank:
        """The platform's actuators, shared by every instance of the design.

        The bank's quantization tables depend on the platform alone, so
        they are built once per design rather than once per session.
        """
        return ActuatorBank(self.spec)

    @cached_property
    def command_grid(self):
        """The controller's command tables over the bank's levels
        (:func:`~repro.control.command_grid`), shared by every instance's
        controller fleets, so a new instance's first step builds only its
        starting command's row."""
        return command_grid(self.controller, self.bank)

    def instantiate(self, rng: np.random.Generator) -> "MayaInstance":
        """Create a fresh runtime instance with its own randomness."""
        bank = self.bank
        kwargs: dict = {}
        if self.config.mask_family == "constant" and self.config.constant_level_w is not None:
            kwargs["level_w"] = self.config.constant_level_w
        mask = make_mask(self.config.mask_family, self.mask_range_w, rng, **kwargs)
        return MayaInstance(
            controller=MatrixController(
                self.controller, bank, command_center=self.config.command_center,
                grid=self.command_grid,
            ),
            mask=mask,
            bank=bank,
        )


class MayaInstance:
    """One deployment of Maya: wakes every interval, reads power, actuates."""

    def __init__(
        self,
        controller: MatrixController,
        mask: MaskGenerator,
        bank: ActuatorBank,
    ) -> None:
        self.controller = controller
        self.mask = mask
        self.bank = bank
        self.current_target_w = float("nan")

    def initial_settings(self) -> ActuatorSettings:
        """Settings for the very first interval: the command center."""
        return self.bank.quantize_normalized(
            np.clip(self.controller._u_center, 0.0, 1.0)
        )

    def decide(self, measured_w: float) -> ActuatorSettings:
        """One Maya wake-up: draw the next mask value, run the controller."""
        self.current_target_w = self.mask.next_target()
        return self.controller.step(self.current_target_w, measured_w)


def build_maya_design(
    spec: PlatformSpec,
    config: MayaConfig | None = None,
    seed: int = 0,
) -> MayaDesign:
    """Run the full design flow of Section V-A for one platform.

    This performs system identification (running the four training
    applications under input excitation) and controller synthesis, and
    returns the deployable design.
    """
    if config is None:
        config = MayaConfig()
    plant = identify_plant(
        spec,
        seed=seed,
        na=config.arx_na,
        nb=config.arx_nb,
        n_intervals=config.sysid_intervals,
        interval_s=config.interval_s,
    )
    controller = design_controller(plant, config.synthesis)
    return MayaDesign(
        spec=spec,
        config=config,
        plant=plant,
        controller=controller,
        mask_range_w=config.resolve_mask_range(spec),
    )
