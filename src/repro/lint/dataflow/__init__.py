"""Whole-project physical-unit checking for the MAYA linter.

Built on the engine's single-parse pipeline: every module is parsed once,
indexed into a :class:`~repro.lint.dataflow.model.ProjectModel`, and walked
by an abstract interpreter (:mod:`~repro.lint.dataflow.interp`) with
per-function summaries.  :mod:`~repro.lint.dataflow.units` infers physical
units from the repo's naming conventions and reports MAYA010, MAYA011
and MAYA013.
"""

from .interp import AV, Evaluator, Finding, Reporter
from .model import ModuleCtx, ProjectModel, name_tokens
from .units import DIMENSIONLESS, UNIT_RULES, Unit, UnitsEvaluator, analyze_units, unit_of_name

__all__ = [
    "AV",
    "Evaluator",
    "Finding",
    "Reporter",
    "ModuleCtx",
    "ProjectModel",
    "name_tokens",
    "DIMENSIONLESS",
    "UNIT_RULES",
    "Unit",
    "UnitsEvaluator",
    "analyze_units",
    "unit_of_name",
]
