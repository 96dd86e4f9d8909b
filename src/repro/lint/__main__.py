"""CLI: ``python -m repro.lint [--format text|json|github] [--stats] [paths...]``.

With no paths, lints the installed ``repro`` package tree: the per-module
MAYA rules and the whole-project unit checker (MAYA010, MAYA011, MAYA013) run over
every file.  Exit codes:

* ``0`` — clean (no unsuppressed findings);
* ``1`` — findings were reported, or a controller certificate failed;
* ``2`` — usage error or a file that does not parse (MAYA000).

``--stats`` appends per-rule finding/suppression counts; ``--list-rules``
prints the rule set.

``--certify PLATFORM`` switches to the model-level verifier: it runs
system identification and controller synthesis for the platform (sys1,
sys2, or sys3), statically certifies the resulting Equation-1 artifact
against the firmware fixed-point format, prints the JSON controller
certificate, and exits 0 only if the certificate is clean.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataflow import UNIT_RULES
from .engine import LintEngine, format_github, format_json, format_text
from .rules import default_rules


def _default_target() -> str:
    """The source tree of the repro package itself."""
    return str(Path(__file__).resolve().parents[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Repo-specific determinism and safety linter (MAYA rules)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding/suppression counts after the report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--certify",
        metavar="PLATFORM",
        help="synthesize and certify the controller for a platform "
        "(sys1/sys2/sys3); prints the JSON certificate",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for --certify synthesis (default: 0)",
    )
    parser.add_argument(
        "--sysid-intervals",
        type=int,
        default=400,
        help="excitation intervals per training app for --certify "
        "(default: 400)",
    )
    return parser


def _certify(platform: str, seed: int, sysid_intervals: int) -> int:
    # Imported lazily: linting must not require scipy/the simulator stack.
    from ..core.config import MayaConfig
    from ..core.maya import build_maya_design
    from ..machine import get_platform
    from .certify import certify_design

    try:
        spec = get_platform(platform)
    except KeyError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2
    design = build_maya_design(
        spec, MayaConfig(sysid_intervals=sysid_intervals), seed=seed
    )
    certificate = certify_design(design.controller)
    print(certificate.to_json())
    return 0 if certificate.ok else 1


def _print_stats(diagnostics, suppressed) -> None:
    """Per-rule finding/suppression counts (the CI log health summary)."""
    counts: dict = {}
    for diag in diagnostics:
        entry = counts.setdefault(diag.rule_id, [0, 0])
        entry[0] += 1
    for diag in suppressed:
        entry = counts.setdefault(diag.rule_id, [0, 0])
        entry[1] += 1
    print("rule      findings  suppressed")
    for rule_id in sorted(counts):
        found, muted = counts[rule_id]
        print(f"{rule_id:<10}{found:>8}{muted:>12}")
    total_found = sum(entry[0] for entry in counts.values())
    total_muted = sum(entry[1] for entry in counts.values())
    print(f"{'total':<10}{total_found:>8}{total_muted:>12}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        listed = [(rule.rule_id, rule.severity, rule.summary) for rule in default_rules()]
        listed += [(rule_id, "error", summary) for rule_id, summary in UNIT_RULES.items()]
        for rule_id, severity, summary in sorted(listed):
            print(f"{rule_id} [{severity}] {summary}")
        return 0

    if args.certify:
        return _certify(args.certify, args.seed, args.sysid_intervals)

    paths = args.paths or [_default_target()]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"repro.lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    report = LintEngine().run_paths(paths)
    diagnostics = report.diagnostics

    if args.format == "json":
        print(format_json(diagnostics))
    elif args.format == "github":
        output = format_github(diagnostics)
        if output:
            print(output)
    else:
        print(format_text(diagnostics))

    if args.stats:
        _print_stats(diagnostics, report.suppressed)

    if report.has_syntax_error:
        return 2
    return 1 if diagnostics else 0


if __name__ == "__main__":
    raise SystemExit(main())
