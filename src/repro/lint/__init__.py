"""Repo-specific static analysis: determinism lint + controller certification.

Each check guards a result that depends on something the test suite does
not vary (the stream keys, the host clock, the float build, directory
order, the telemetry/profiler switches, the environment) or on figure
numbers the paper-claim gates do not pin:

* :mod:`repro.lint.engine` / :mod:`repro.lint.rules` — an AST linter that
  walks ``src/repro`` and flags direct ``np.random`` use outside
  :mod:`repro.machine.rng` (MAYA001), wall-clock reads outside the
  sanctioned timing sites (MAYA002), float ``==`` comparisons (MAYA003),
  unsorted directory listings in the execution and telemetry layers
  (MAYA031), telemetry or profiler use that could feed back into
  simulation state (MAYA032, MAYA033), and host-state imports or file
  reads in simulation code (MAYA050).
* :mod:`repro.lint.dataflow` — physical-unit checking from the repo's
  naming conventions (MAYA010, MAYA011, MAYA013), a whole-project
  analysis over the same parse that runs in every lint call.
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
from .dataflow import Unit, analyze_units, unit_of_name
from .engine import Diagnostic, LintEngine, LintReport, format_github, lint_paths
from .rules import Rule, all_rule_ids, default_rules

__all__ = [
    "DEFAULT_STORAGE_BUDGET_BYTES",
    "CertificationError",
    "ControllerCertificate",
    "certify_controller",
    "certify_design",
    "Unit",
    "analyze_units",
    "unit_of_name",
    "Diagnostic",
    "LintEngine",
    "LintReport",
    "format_github",
    "lint_paths",
    "Rule",
    "all_rule_ids",
    "default_rules",
]
