"""Interprocedural dataflow analyses for the MAYA linter.

Built on the engine's single-parse pipeline: every module is parsed once,
indexed into a :class:`~repro.lint.dataflow.model.ProjectModel`, and walked
by an abstract interpreter (:mod:`~repro.lint.dataflow.interp`) with
per-function summaries.  Three analysis families ride on it:

* :mod:`~repro.lint.dataflow.units` — physical-unit inference from the
  repo's naming conventions (MAYA010-MAYA013);
* :mod:`~repro.lint.dataflow.taint` — secret-taint certification of the
  mask/control packages (MAYA020-MAYA022) plus the JSON leakage
  certificate;
* :mod:`~repro.lint.dataflow.purity` — purity certification of the
  simulation closure (MAYA050, MAYA052, MAYA053) plus the per-entry-point
  ``maya.lint.purity-certificate.v2``.
"""

from .interp import AV, Evaluator, Finding, Reporter
from .model import ModuleCtx, ProjectModel, name_tokens
from .purity import (
    PURITY_CERT_SCHEMA,
    PURITY_RULES,
    PurityEvaluator,
    analyze_purity,
    purity_certificates,
)
from .rules import ANALYSES, DataflowContext, DataflowRule, all_dataflow_rule_ids, dataflow_rules
from .taint import (
    DECLASSIFIER_NAMES,
    SECRET,
    TAINT_RULES,
    TaintEvaluator,
    analyze_taint,
    is_source_name,
    leakage_certificate,
)
from .units import DIMENSIONLESS, UNIT_RULES, Unit, UnitsEvaluator, analyze_units, unit_of_name

__all__ = [
    "AV",
    "Evaluator",
    "Finding",
    "Reporter",
    "ModuleCtx",
    "ProjectModel",
    "name_tokens",
    "PURITY_CERT_SCHEMA",
    "PURITY_RULES",
    "PurityEvaluator",
    "analyze_purity",
    "purity_certificates",
    "ANALYSES",
    "DataflowContext",
    "DataflowRule",
    "all_dataflow_rule_ids",
    "dataflow_rules",
    "DECLASSIFIER_NAMES",
    "SECRET",
    "TAINT_RULES",
    "TaintEvaluator",
    "analyze_taint",
    "is_source_name",
    "leakage_certificate",
    "DIMENSIONLESS",
    "UNIT_RULES",
    "Unit",
    "UnitsEvaluator",
    "analyze_units",
    "unit_of_name",
]
