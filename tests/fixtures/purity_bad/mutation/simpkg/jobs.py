"""Fixture: a clean job spec whose calibration mutates shared state.

Every field is hashed — the defects are the module-level table store and
the class-attribute store in :mod:`.calib.table`, so exactly two MAYA052
findings must fire.
"""

import hashlib
import json
from dataclasses import asdict, dataclass

from .calib.table import calibrated_power


@dataclass(frozen=True)
class CalibJob:
    workload: str
    seed: int = 0

    def describe(self) -> dict:
        return asdict(self)

    def key(self) -> str:
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def execute_jobs_batched(job: CalibJob) -> float:
    return calibrated_power(job.workload, job.seed)
