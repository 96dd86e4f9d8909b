"""Simulated computer substrate: platforms, power, actuators, sensors.

This package replaces the physical Sys1/Sys2/Sys3 machines of the paper
(Table III) with a calibrated discrete-time simulation.  See DESIGN.md for
the substitution rationale.
"""

from .actuators import (
    ActuatorBank,
    ActuatorSettings,
    BalloonTask,
    DvfsActuator,
    IdleInjector,
    LevelTable,
    QuantizedActuator,
)
from .machine import CursorFleet, SimulatedMachine, activity_profiles
from .platform import PLATFORMS, SYS1, SYS2, SYS3, PlatformSpec, get_platform
from .power import (
    OperatingPoints,
    PowerBreakdown,
    PowerModel,
    batch_window_power,
    draw_noise,
)
from .rng import spawn
from .sensors import OutletMeter, RaplSensor, measure_windows, window_means
from .thermal import ThermalModel
from .trace import Trace

__all__ = [
    "ActuatorBank",
    "ActuatorSettings",
    "BalloonTask",
    "DvfsActuator",
    "IdleInjector",
    "LevelTable",
    "QuantizedActuator",
    "CursorFleet",
    "SimulatedMachine",
    "activity_profiles",
    "PLATFORMS",
    "SYS1",
    "SYS2",
    "SYS3",
    "PlatformSpec",
    "get_platform",
    "OperatingPoints",
    "PowerBreakdown",
    "PowerModel",
    "batch_window_power",
    "draw_noise",
    "spawn",
    "OutletMeter",
    "RaplSensor",
    "measure_windows",
    "window_means",
    "ThermalModel",
    "Trace",
]
