"""Maya core: configuration, design flow, and the session runner."""

from .config import MayaConfig, default_mask_range
from .maya import MayaDesign, MayaInstance, build_maya_design
from .runtime import make_machine, run_session

__all__ = [
    "MayaConfig",
    "default_mask_range",
    "MayaDesign",
    "MayaInstance",
    "build_maya_design",
    "make_machine",
    "run_session",
]
