"""Formal-control substrate: system ID, synthesis, and the runtime controller.

Each name loads its own submodule on first use (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "arx": ("ArxModel", "fit_arx", "fit_arx_records"),
    "controller": ("ControllerFleet", "MatrixController", "command_grid"),
    "fixedpoint": ("FixedPointController", "FixedPointFormat", "FixedPointOverflowError"),
    "naive": ("NaiveTracker",),
    "statespace": ("StateSpace",),
    "synthesis": ("DesignedController", "SynthesisSpec", "design_controller"),
    "sysid": (
        "ExcitationRecord",
        "PlantModel",
        "identify_plant",
        "run_excitation",
        "training_programs",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
