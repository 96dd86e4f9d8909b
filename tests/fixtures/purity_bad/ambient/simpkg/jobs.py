"""Fixture: a clean job spec whose physics model reads ambient state.

Every field is hashed — the only defect is the ``os.environ`` read in
:mod:`.physics.model`, so exactly MAYA050 must fire.
"""

import hashlib
import json
from dataclasses import asdict, dataclass

from .physics.model import window_power


@dataclass(frozen=True)
class AmbientJob:
    workload: str
    seed: int = 0

    def describe(self) -> dict:
        return asdict(self)

    def key(self) -> str:
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def execute_jobs_batched(job: AmbientJob) -> float:
    return window_power(job.workload, job.seed)
