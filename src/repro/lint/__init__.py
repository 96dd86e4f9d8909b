"""Repo-specific static analysis: determinism lint + controller certification.

Two halves, both motivated by the paper's formal-guarantee story:

* :mod:`repro.lint.engine` / :mod:`repro.lint.rules` — an AST linter that
  walks ``src/repro`` and flags hazards that would silently break the
  reproduction's byte-reproducibility or hide controller defects (direct
  ``np.random`` use outside :mod:`repro.machine.rng`, wall-clock reads
  outside the sanctioned timing sites, float ``==`` comparisons, mutable
  default arguments, missing ``__all__``, bare ``except``, and in the
  simulation hot paths reductions without an ``axis=`` or float32
  narrowing).
* :mod:`repro.lint.dataflow` — interprocedural dataflow analyses over the
  same parse: physical-unit checking from the repo's naming conventions
  (MAYA010-MAYA013), secret-taint certification of the mask/control
  packages (MAYA020-MAYA022, with a JSON leakage certificate), and
  purity certification of the simulation closure (MAYA050, MAYA052,
  MAYA053, with a per-entry-point certificate that pins what the trace
  cache's content address must capture).
* :mod:`repro.lint.certify` — a model-level verifier that statically
  certifies a synthesized Equation-1 :class:`~repro.control.statespace.StateSpace`
  against a :class:`~repro.control.fixedpoint.FixedPointFormat` without
  running the closed loop: stability, no fixed-point saturation, bounded
  quantization error, and the paper's 1 KB storage budget (Section VII-E).

Run the linter from the command line::

    python -m repro.lint [--format json] [paths...]
"""

from .certify import (
    DEFAULT_STORAGE_BUDGET_BYTES,
    CertificationError,
    ControllerCertificate,
    certify_controller,
    certify_design,
)
from .dataflow import (
    DataflowContext,
    Unit,
    analyze_purity,
    analyze_taint,
    analyze_units,
    leakage_certificate,
    unit_of_name,
)
from .engine import Diagnostic, LintEngine, LintReport, format_github, lint_paths
from .purity import check_purity_certificates, write_purity_certificates
from .rules import Rule, all_rule_ids, default_rules

__all__ = [
    "DEFAULT_STORAGE_BUDGET_BYTES",
    "CertificationError",
    "ControllerCertificate",
    "certify_controller",
    "certify_design",
    "DataflowContext",
    "Unit",
    "analyze_purity",
    "analyze_taint",
    "analyze_units",
    "leakage_certificate",
    "unit_of_name",
    "Diagnostic",
    "LintEngine",
    "LintReport",
    "format_github",
    "lint_paths",
    "check_purity_certificates",
    "write_purity_certificates",
    "Rule",
    "all_rule_ids",
    "default_rules",
]
