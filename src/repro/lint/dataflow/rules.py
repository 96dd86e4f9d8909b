"""Engine-facing adapters: dataflow analyses exposed as MAYA rules.

The dataflow analyses are whole-project passes, but the engine's rule API
is per-module.  :class:`DataflowContext` runs the selected analyses once
over every parsed module and caches the findings by (path, rule id); the
:class:`DataflowRule` subclasses then behave like ordinary rules — one per
rule id, suppressible with ``# maya: ignore[MAYA01x]`` — that simply look
up their precomputed findings for the module at hand.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..rules import LintContext, RawFinding, Rule
from .interp import Finding
from .model import ProjectModel
from .purity import PURITY_RULES, analyze_purity
from .taint import TAINT_RULES, analyze_taint
from .units import UNIT_RULES, analyze_units

__all__ = [
    "DataflowContext",
    "DataflowRule",
    "ANALYSES",
    "dataflow_rules",
    "all_dataflow_rule_ids",
]

#: Analysis name -> the rule ids it powers.
ANALYSES: Dict[str, Tuple[str, ...]] = {
    "units": tuple(sorted(UNIT_RULES)),
    "taint": tuple(sorted(TAINT_RULES)),
    "purity": tuple(sorted(PURITY_RULES)),
}


class DataflowContext:
    """Findings of the selected analyses, indexed for per-module lookup."""

    def __init__(
        self,
        findings: Sequence[Finding],
        certificate: Optional[dict] = None,
        analyses: Tuple[str, ...] = (),
        purity_certificates: Optional[Dict[str, dict]] = None,
    ) -> None:
        self.analyses = analyses
        self.certificate = certificate
        self.purity_certificates = purity_certificates
        self._by_path_rule: Dict[Tuple[str, str], List[Finding]] = {}
        for finding in findings:
            key = (finding.path, finding.rule_id)
            self._by_path_rule.setdefault(key, []).append(finding)

    @classmethod
    def build(
        cls, modules: Sequence[tuple], analyses: Sequence[str]
    ) -> "DataflowContext":
        """Run the selected analyses over already-parsed ``(path, tree)``
        modules."""
        selected = tuple(name for name in ANALYSES if name in analyses)
        unknown = sorted(set(analyses) - set(ANALYSES))
        if unknown:
            raise ValueError(f"unknown analyses: {', '.join(unknown)}")
        model = ProjectModel(modules)
        findings: List[Finding] = []
        certificate = None
        purity_certs = None
        if "units" in selected:
            findings.extend(analyze_units(model))
        if "taint" in selected:
            taint_findings, certificate = analyze_taint(model)
            findings.extend(taint_findings)
        if "purity" in selected:
            purity_findings, purity_certs = analyze_purity(model)
            findings.extend(purity_findings)
        return cls(sorted(findings), certificate, selected, purity_certs)

    def findings_for(self, path: str, rule_id: str) -> List[Finding]:
        return self._by_path_rule.get((path, rule_id), [])


class DataflowRule(Rule):
    """A rule whose findings were precomputed by a whole-project analysis."""

    analysis: str = ""

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        dataflow = getattr(ctx, "dataflow", None)
        if dataflow is None:
            return
        for finding in dataflow.findings_for(ctx.path, self.rule_id):
            yield finding.line, finding.col, finding.message


def _make_rule(rule_id: str, analysis: str, summary: str) -> type:
    return type(
        f"Dataflow{rule_id}",
        (DataflowRule,),
        {"rule_id": rule_id, "severity": "error", "summary": summary, "analysis": analysis},
    )


_DATAFLOW_RULES: Tuple[type, ...] = tuple(
    _make_rule(rule_id, analysis, summary)
    for analysis, table in (
        ("units", UNIT_RULES),
        ("taint", TAINT_RULES),
        ("purity", PURITY_RULES),
    )
    for rule_id, summary in sorted(table.items())
)


def dataflow_rules(analyses: Sequence[str]) -> Tuple[Rule, ...]:
    """Rule instances backing the selected analyses, in rule-id order."""
    return tuple(
        cls() for cls in _DATAFLOW_RULES if cls.analysis in tuple(analyses)
    )


def all_dataflow_rule_ids() -> Tuple[str, ...]:
    return tuple(cls.rule_id for cls in _DATAFLOW_RULES)
