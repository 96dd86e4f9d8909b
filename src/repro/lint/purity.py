"""Certificate I/O for the purity analysis of the simulation closure.

The committed ``certs/purity/`` directory holds one JSON file per
simulation entry point, named by the entry's display name (today one
file, ``execute_jobs_batched.json``).  The analysis is
the single source of truth and the committed JSON is a byte-exact render
of its output: CI regenerates the certificates with ``repro-lint
--analyze purity --check-certs certs`` and fails on any drift against the
committed set.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from .dataflow.purity import PURITY_CERT_SCHEMA

__all__ = [
    "PURITY_CERT_SCHEMA",
    "write_purity_certificates",
    "check_purity_certificates",
]


def _render_certificate(certificate: dict) -> str:
    """Canonical byte rendering (sorted keys, trailing newline)."""
    return json.dumps(certificate, indent=2, sort_keys=True) + "\n"


def _cert_filename(certificate: dict) -> str:
    return f"{certificate['entry']}.json"


def write_purity_certificates(certificates: Dict[str, dict], directory) -> List[str]:
    """Write one JSON file per entry-point certificate; returns names."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for _key, certificate in sorted(certificates.items()):
        name = _cert_filename(certificate)
        (directory / name).write_text(_render_certificate(certificate), encoding="utf-8")
        written.append(name)
    return written


def check_purity_certificates(certificates: Dict[str, dict], directory) -> List[str]:
    """Diff fresh purity certificates against a committed directory.

    Returns a list of human-readable drift messages (empty means in sync):
    missing files, stale files nothing currently produces, and content
    drift.
    """
    directory = Path(directory)
    problems: List[str] = []
    expected = {
        _cert_filename(certificate): certificate
        for _key, certificate in sorted(certificates.items())
    }
    committed = (
        {entry.name for entry in directory.glob("*.json")}
        if directory.is_dir()
        else set()
    )
    for name in sorted(set(expected) - committed):
        problems.append(f"missing certificate {name}: regenerate with --write-certs")
    for name in sorted(committed - set(expected)):
        problems.append(f"stale certificate {name}: no entry point produces it")
    for name in sorted(set(expected) & committed):
        try:
            on_disk = json.loads((directory / name).read_text(encoding="utf-8"))
        except ValueError:
            problems.append(f"unreadable certificate {name}: not valid JSON")
            continue
        if on_disk != expected[name]:
            problems.append(
                f"certificate drift in {name}: analysis output changed; "
                f"regenerate with --write-certs"
            )
    return problems
