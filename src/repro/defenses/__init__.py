"""The defense designs compared in the paper (Table V)."""

from .base import Defense
from .selective import SelectiveMaya
from .designs import (
    DESIGN_NAMES,
    Baseline,
    DefenseFactory,
    DefenseFleet,
    MayaDefense,
    NoisyBaseline,
    RandomInputs,
    is_design_name,
)

__all__ = [
    "Defense",
    "DESIGN_NAMES",
    "Baseline",
    "DefenseFactory",
    "DefenseFleet",
    "MayaDefense",
    "NoisyBaseline",
    "RandomInputs",
    "SelectiveMaya",
    "is_design_name",
]
