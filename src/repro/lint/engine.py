"""Lint engine: file discovery, suppression, and reporting.

The engine is rule-agnostic: it parses each module once, hands the tree to
every rule, and filters the findings through per-line suppressions of the
form::

    rng = np.random.default_rng(0)  # maya: ignore[MAYA001]
    x = anything_goes()             # maya: ignore

A bracketed list suppresses only the named rules on that physical line; a
bare ``# maya: ignore`` suppresses every rule.  Suppressions apply to any
line of the statement a finding is reported on: for a multi-line (simple)
statement the comment may sit on the first *or* the last physical line.

The engine parses each file exactly once.  The parsed trees are also fed
to the whole-project unit checker (:mod:`repro.lint.dataflow.units`,
MAYA010, MAYA011, MAYA013), whose findings go through the same suppression and
formatting machinery as the per-module rules.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .dataflow import ProjectModel, analyze_units
from .rules import LintContext, Rule, default_rules

__all__ = [
    "Diagnostic",
    "LintEngine",
    "LintReport",
    "lint_paths",
    "iter_python_files",
    "parse_suppressions",
    "statement_extents",
    "format_text",
    "format_json",
    "format_github",
]

_SUPPRESSION_RE = re.compile(r"#\s*maya:\s*ignore(?:\s*\[([A-Za-z0-9_,\s]*)\])?")

#: Rule id used for files that fail to parse.
SYNTAX_ERROR_RULE = "MAYA000"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: where, which rule, how bad, and why."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )

    def as_dict(self) -> dict:
        return asdict(self)


def parse_suppressions(source_lines: Sequence[str]) -> Dict[int, Optional[FrozenSet[str]]]:
    """Per-line suppression map: line number -> rule ids, or None for all."""
    suppressions: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        listed = match.group(1)
        if listed is None or not listed.strip():
            suppressions[lineno] = None
        else:
            suppressions[lineno] = frozenset(
                rule.strip().upper() for rule in listed.split(",") if rule.strip()
            )
    return suppressions


#: Simple (non-compound) statements: a suppression on their last physical
#: line covers the whole statement extent.
_SIMPLE_STMTS = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.Pass,
)


def statement_extents(tree: ast.Module) -> List[Tuple[int, int]]:
    """(first, last) line pairs of every multi-line simple statement."""
    extents = []
    for node in ast.walk(tree):
        if isinstance(node, _SIMPLE_STMTS):
            end = getattr(node, "end_lineno", None)
            if end is not None and end > node.lineno:
                extents.append((node.lineno, end))
    return extents


def _merge_suppression(
    a: Optional[FrozenSet[str]], b: Optional[FrozenSet[str]]
) -> Optional[FrozenSet[str]]:
    if a is None or b is None:
        return None  # a blanket ``# maya: ignore`` wins
    return a | b


def extend_suppressions(
    tree: ast.Module, suppressions: Dict[int, Optional[FrozenSet[str]]]
) -> Dict[int, Optional[FrozenSet[str]]]:
    """Spread a suppression on the last line of a multi-line simple
    statement across the statement's whole extent."""
    if not suppressions:
        return suppressions
    out = dict(suppressions)
    for first, last in statement_extents(tree):
        if last not in suppressions:
            continue
        tail = suppressions[last]
        for line in range(first, last):
            out[line] = _merge_suppression(out.get(line, frozenset()), tail)
    return out


def iter_python_files(paths: Iterable) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``.py`` files."""
    seen = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates = sorted(entry.rglob("*.py"))
        else:
            candidates = [entry]
        for candidate in candidates:
            key = str(candidate)
            if key not in seen:
                seen.add(key)
                yield candidate


@dataclass
class LintReport:
    """Everything one lint run produced."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Findings filtered out by ``# maya: ignore`` suppressions.
    suppressed: List[Diagnostic] = field(default_factory=list)

    @property
    def has_syntax_error(self) -> bool:
        return any(d.rule_id == SYNTAX_ERROR_RULE for d in self.diagnostics)


@dataclass
class _ParsedFile:
    """One successfully parsed module, ready for the rules and units."""

    path: str
    tree: ast.Module
    source_lines: tuple
    suppressions: Dict[int, Optional[FrozenSet[str]]]


class LintEngine:
    """Run a per-module rule set and the unit checker over sources."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules = tuple(rules) if rules is not None else default_rules()

    # -- parsing -------------------------------------------------------

    def _parse(self, source: str, path: str):
        """-> (_ParsedFile, None) or (None, syntax-error Diagnostic)."""
        normalized = str(path).replace("\\", "/")
        try:
            tree = ast.parse(source, filename=normalized)
        except SyntaxError as exc:
            return None, Diagnostic(
                path=normalized,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule_id=SYNTAX_ERROR_RULE,
                severity="error",
                message=f"syntax error: {exc.msg}",
            )
        source_lines = tuple(source.splitlines())
        suppressions = extend_suppressions(tree, parse_suppressions(source_lines))
        return (
            _ParsedFile(
                path=normalized,
                tree=tree,
                source_lines=source_lines,
                suppressions=suppressions,
            ),
            None,
        )

    # -- running -------------------------------------------------------

    def _check_file(
        self, parsed: _ParsedFile, unit_findings
    ) -> Tuple[List[Diagnostic], List[Diagnostic]]:
        ctx = LintContext(path=parsed.path, source_lines=parsed.source_lines)
        raw = [
            (rule.rule_id, rule.severity, line, col, message)
            for rule in self.rules
            for line, col, message in rule.check(parsed.tree, ctx)
        ]
        raw.extend(
            (f.rule_id, "error", f.line, f.col, f.message) for f in unit_findings
        )
        diagnostics: List[Diagnostic] = []
        suppressed_diags: List[Diagnostic] = []
        for rule_id, severity, line, col, message in raw:
            diagnostic = Diagnostic(
                path=parsed.path,
                line=line,
                col=col,
                rule_id=rule_id,
                severity=severity,
                message=message,
            )
            suppressed = parsed.suppressions.get(line, frozenset())
            if suppressed is None or rule_id in suppressed:
                suppressed_diags.append(diagnostic)
            else:
                diagnostics.append(diagnostic)
        return diagnostics, suppressed_diags

    def _run(self, parsed_files, syntax_errors) -> LintReport:
        model = ProjectModel([(parsed.path, parsed.tree) for parsed in parsed_files])
        unit_findings: Dict[str, list] = {}
        for finding in analyze_units(model):
            unit_findings.setdefault(finding.path, []).append(finding)
        diagnostics = list(syntax_errors)
        suppressed: List[Diagnostic] = []
        for parsed in parsed_files:
            kept, muted = self._check_file(parsed, unit_findings.get(parsed.path, ()))
            diagnostics.extend(kept)
            suppressed.extend(muted)
        return LintReport(diagnostics=sorted(diagnostics), suppressed=sorted(suppressed))

    def run_source(self, source: str, path: str = "<string>") -> LintReport:
        """Lint one module given as a string."""
        parsed, error = self._parse(source, path)
        if parsed is None:
            return LintReport(diagnostics=[error])
        return self._run([parsed], [])

    def run_paths(self, paths: Iterable) -> LintReport:
        """Lint files/directories; the unit checker sees every file at once."""
        parsed_files: List[_ParsedFile] = []
        syntax_errors: List[Diagnostic] = []
        for path in iter_python_files(paths):
            parsed, error = self._parse(path.read_text(encoding="utf-8"), str(path))
            if parsed is None:
                syntax_errors.append(error)
            else:
                parsed_files.append(parsed)
        return self._run(parsed_files, syntax_errors)

    # -- compatibility wrappers ---------------------------------------

    def lint_source(self, source: str, path: str = "<string>") -> List[Diagnostic]:
        return self.run_source(source, path).diagnostics

    def lint_file(self, path) -> List[Diagnostic]:
        path = Path(path)
        return self.run_paths([path]).diagnostics

    def lint_paths(self, paths: Iterable) -> List[Diagnostic]:
        return self.run_paths(paths).diagnostics


def lint_paths(paths: Iterable, rules: Optional[Sequence[Rule]] = None) -> List[Diagnostic]:
    """Convenience wrapper: lint ``paths`` with the default (or given) rules."""
    return LintEngine(rules).lint_paths(paths)


def format_text(diagnostics: Sequence[Diagnostic]) -> str:
    lines = [diag.format() for diag in diagnostics]
    lines.append(
        f"{len(diagnostics)} finding(s)" if diagnostics else "clean: 0 findings"
    )
    return "\n".join(lines)


def format_json(diagnostics: Sequence[Diagnostic]) -> str:
    payload = {
        "findings": [diag.as_dict() for diag in diagnostics],
        "total": len(diagnostics),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def format_github(diagnostics: Sequence[Diagnostic]) -> str:
    """GitHub Actions workflow-command annotations (``::error file=...``)."""
    lines = []
    for diag in diagnostics:
        level = "error" if diag.severity == "error" else "warning"
        lines.append(
            f"::{level} file={diag.path},line={diag.line},"
            f"col={diag.col + 1},title={diag.rule_id}::{diag.message}"
        )
    return "\n".join(lines)
