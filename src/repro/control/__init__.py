"""Formal-control substrate: system ID, synthesis, and the runtime controller."""

from .arx import ArxModel, fit_arx, fit_arx_records
from .controller import ControllerFleet, MatrixController, command_grid
from .fixedpoint import FixedPointController, FixedPointFormat, FixedPointOverflowError
from .naive import NaiveTracker
from .statespace import StateSpace
from .synthesis import DesignedController, SynthesisSpec, design_controller
from .sysid import (
    ExcitationRecord,
    PlantModel,
    identify_plant,
    run_excitation,
    training_programs,
)

__all__ = [
    "ArxModel",
    "fit_arx",
    "fit_arx_records",
    "ControllerFleet",
    "MatrixController",
    "command_grid",
    "FixedPointController",
    "FixedPointFormat",
    "FixedPointOverflowError",
    "NaiveTracker",
    "StateSpace",
    "DesignedController",
    "SynthesisSpec",
    "design_controller",
    "ExcitationRecord",
    "PlantModel",
    "identify_plant",
    "run_excitation",
    "training_programs",
]
