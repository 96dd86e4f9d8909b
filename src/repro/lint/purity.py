"""Certificate I/O for the purity & cache-salt soundness analysis.

The committed ``certs/purity/`` directory holds one JSON file per
simulation entry point, named by the entry's display name
(``execute_job.json``, ``batch_window_power.json``).  CI
regenerates the certificates with ``repro-lint --analyze purity
--write-certs`` into a scratch directory and fails on any drift against
the committed set — the same regenerate-and-diff contract the numeric
certificates use (:mod:`repro.lint.certs`).
"""

from __future__ import annotations

from typing import Dict, List

from .certs import check_certificate_set, write_certificate_set
from .dataflow.purity import PURITY_CERT_SCHEMA

__all__ = [
    "PURITY_CERT_SCHEMA",
    "write_purity_certificates",
    "check_purity_certificates",
]


def _cert_filename(certificate: dict) -> str:
    return f"{certificate['entry']}.json"


def write_purity_certificates(certificates: Dict[str, dict], directory) -> List[str]:
    """Write one JSON file per entry-point certificate; returns names."""
    return write_certificate_set(certificates, directory, _cert_filename)


def check_purity_certificates(certificates: Dict[str, dict], directory) -> List[str]:
    """Diff fresh purity certificates against a committed directory."""
    return check_certificate_set(certificates, directory, _cert_filename)
