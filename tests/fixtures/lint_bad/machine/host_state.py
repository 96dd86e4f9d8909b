"""MAYA050 fixture: host state read from simulation code.

The rule is scoped to the simulation packages, so this fixture carries a
``machine/`` module path.
"""

import os
from pathlib import Path

__all__ = ["calibration_scale"]


def calibration_scale():
    scale = float(os.environ.get("CALIBRATION_SCALE", "1.0"))
    with open(Path("calibration.txt")) as handle:
        return scale * float(handle.read())
