"""CLI: ``python -m repro.lint [--analyze units] [--format json] [paths...]``.

With no paths, lints the installed ``repro`` package tree.  Exit codes:

* ``0`` — clean (no findings after baseline filtering);
* ``1`` — findings were reported, or a certificate failed;
* ``2`` — usage error or a file that does not parse (MAYA000).

``--analyze units`` / ``--analyze taint`` / ``--analyze purity`` enable
the whole-project dataflow analyses (repeatable); ``--analyze taint``
additionally emits the JSON leakage certificate and ``--analyze purity``
the per-entry-point cache-soundness certificates.  ``--write-certs`` /
``--check-certs`` manage the committed purity set (and imply ``--analyze
purity``): DIR is used flat, or its ``purity/`` subtree when it has one,
so ``--check-certs certs`` checks ``certs/purity/``.  As a convenience
for the common CI one-liner, ``--check-certs`` with no positional paths
accepts the *source tree* as its argument and locates the committed
``certs/`` root automatically.
``--baseline FILE`` filters out previously recorded findings;
``--write-baseline FILE`` records the current ones.  ``--stats`` appends
per-rule finding/suppression counts.

``--certify PLATFORM`` switches to the model-level verifier: it runs
system identification and controller synthesis for the platform (sys1,
sys2, or sys3), statically certifies the resulting Equation-1 artifact
against the firmware fixed-point format, prints the JSON controller
certificate, and exits 0 only if the certificate is clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Sequence

from .engine import Diagnostic, LintEngine, format_github, format_json, format_text
from .rules import default_rules

BASELINE_SCHEMA = "maya.lint.baseline.v1"


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
        "--analyze",
        action="append",
        choices=("units", "taint", "purity"),
        default=None,
        metavar="ANALYSIS",
        help="enable a whole-project dataflow analysis (units, taint, "
        "purity); repeatable",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding/suppression counts after the report",
    )
    parser.add_argument(
        "--write-certs",
        metavar="DIR",
        help="write the purity certificates to DIR (implies --analyze purity)",
    )
    parser.add_argument(
        "--check-certs",
        metavar="DIR",
        help="fail when the purity certificates drift from the committed "
        "set in DIR (implies --analyze purity)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write the (unfiltered) findings to a baseline file and exit 0",
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


def _fingerprint(diag: Diagnostic) -> tuple:
    return (diag.path, diag.rule_id, diag.message)


def _load_baseline(path: str) -> set:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"repro.lint: cannot read baseline {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    entries = payload.get("entries", []) if isinstance(payload, dict) else []
    return {
        (entry["path"], entry["rule_id"], entry["message"])
        for entry in entries
        if isinstance(entry, dict)
        and {"path", "rule_id", "message"} <= set(entry)
    }


def _write_baseline(path: str, diagnostics: Sequence[Diagnostic]) -> None:
    entries = sorted(
        {_fingerprint(diag) for diag in diagnostics}
    )
    payload = {
        "schema": BASELINE_SCHEMA,
        "entries": [
            {"path": p, "rule_id": r, "message": m} for p, r, m in entries
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


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


#: The analysis whose certificates ``--write-certs``/``--check-certs`` manage.
_CERT_ANALYSIS = "purity"


def _reinterpret_check_certs(args) -> None:
    """Allow ``--check-certs <source tree>`` with no positional paths.

    The CI one-liner ``repro-lint --analyze purity --check-certs src/repro``
    reads naturally but binds the source tree to the DIR argument.  When
    there are no positional paths and DIR looks like a source tree (a
    ``.py`` file, or a directory holding Python sources but no committed
    certificates), treat it as the lint target and locate the committed
    ``certs/`` root next to the current directory or the installed package.
    """
    if not args.check_certs or args.paths or args.write_certs:
        return
    target = Path(args.check_certs)
    if not target.exists():
        return
    looks_like_source = (target.is_file() and target.suffix == ".py") or (
        target.is_dir()
        and not any(target.glob("*.json"))
        and not (target / _CERT_ANALYSIS).is_dir()
        and any(target.rglob("*.py"))
    )
    if not looks_like_source:
        return
    args.paths = [str(target)]
    for candidate in (
        Path.cwd() / "certs",
        Path(__file__).resolve().parents[3] / "certs",
    ):
        if candidate.is_dir():
            args.check_certs = str(candidate)
            return
    args.check_certs = str(Path.cwd() / "certs")


def _cert_dir(base) -> Path:
    """The certificate directory under DIR: its ``purity/`` subtree when
    it has one (the committed ``certs/`` root), else DIR itself."""
    base = Path(base)
    if (base / _CERT_ANALYSIS).is_dir():
        return base / _CERT_ANALYSIS
    return base


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _reinterpret_check_certs(args)
    analyses = tuple(dict.fromkeys(args.analyze or ()))
    if (args.write_certs or args.check_certs) and _CERT_ANALYSIS not in analyses:
        analyses = analyses + (_CERT_ANALYSIS,)

    if args.list_rules:
        from .dataflow import ANALYSES, dataflow_rules

        rules: List = list(default_rules()) + list(dataflow_rules(tuple(ANALYSES)))
        for rule in rules:
            print(f"{rule.rule_id} [{rule.severity}] {rule.summary}")
        return 0

    if args.certify:
        return _certify(args.certify, args.seed, args.sysid_intervals)

    paths = args.paths or [_default_target()]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"repro.lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    report = LintEngine(analyses=analyses).run_paths(paths)
    diagnostics = report.diagnostics

    if args.write_baseline:
        _write_baseline(args.write_baseline, diagnostics)
        print(
            f"wrote {len(diagnostics)} finding(s) to baseline "
            f"{args.write_baseline}"
        )
        return 0

    if args.baseline:
        known = _load_baseline(args.baseline)
        diagnostics = [
            diag for diag in diagnostics if _fingerprint(diag) not in known
        ]

    cert_problems: List[str] = []
    if args.write_certs or args.check_certs:
        from .purity import check_purity_certificates, write_purity_certificates

        certs = report.purity_certificates or {}
        if args.write_certs:
            directory = _cert_dir(args.write_certs)
            written = write_purity_certificates(certs, directory)
            print(
                f"wrote {len(written)} purity certificate(s) to {directory}",
                file=sys.stderr,
            )
        if args.check_certs:
            cert_problems = check_purity_certificates(certs, _cert_dir(args.check_certs))

    if args.format == "json":
        print(
            format_json(
                diagnostics,
                certificate=report.certificate,
                purity_certificates=report.purity_certificates,
            )
        )
    elif args.format == "github":
        output = format_github(diagnostics)
        if output:
            print(output)
        if report.certificate is not None and not report.certificate["ok"]:
            print("::error title=leakage-certificate::taint certificate failed")
        for problem in cert_problems:
            print(f"::error title=purity-certificate::{problem}")
    else:
        print(format_text(diagnostics))
        if report.certificate is not None:
            print(json.dumps(report.certificate, indent=2, sort_keys=True))
        for problem in cert_problems:
            print(f"purity-certificate: {problem}")

    if args.stats:
        _print_stats(diagnostics, report.suppressed)

    if report.has_syntax_error:
        return 2
    if diagnostics:
        return 1
    if report.certificate is not None and not report.certificate["ok"]:
        return 1
    if cert_problems:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
