"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(scale=..., seed=...)`` returning a typed result
with a ``table()`` renderer that prints the rows the paper reports.  See
DESIGN.md section 4 for the experiment-to-module index.

Importing this package loads no figure module: :data:`EXPERIMENTS` maps
each key to its module and imports the module when the key is looked up,
so a run of one figure (``from repro.experiments import fig14_overheads``,
``python -m repro run fig14``) pays only for that figure's own imports.
DESIGN.md section 6d, "What a run imports", lists what each loads.
"""

import importlib
from collections.abc import Mapping

from .config import SCALES, ExperimentScale, get_scale


class _Experiments(Mapping):
    """Experiment key -> figure module, imported on first lookup."""

    def __init__(self, modules: dict) -> None:
        self._modules = modules

    def __getitem__(self, key: str):
        return importlib.import_module(f"{__name__}.{self._modules[key]}")

    def __contains__(self, key: object) -> bool:
        # Mapping's default would look the key up, importing its module.
        return key in self._modules

    def __iter__(self):
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)


EXPERIMENTS = _Experiments({
    "fig03": "fig03_naive_control",
    "fig04": "fig04_tab02_masks",
    "tab02": "fig04_tab02_masks",
    "fig06": "fig06_app_detection",
    "fig07": "fig07_summary_stats",
    "fig08": "fig08_video_detection",
    "fig09": "fig09_webpage_detection",
    "fig10": "fig10_average_traces",
    "fig11": "fig11_changepoints",
    "fig12": "fig12_sampling_rate",
    "fig13": "fig13_tracking",
    "fig14": "fig14_overheads",
    "fig15": "fig15_platypus",
    "sec7e": "sec7e_controller_cost",
})

__all__ = ["EXPERIMENTS", "SCALES", "ExperimentScale", "get_scale"]
