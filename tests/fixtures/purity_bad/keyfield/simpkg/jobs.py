"""Fixture: a job field influences the trace but is left out of the key.

``noise_gain`` flows into :func:`.sim.run.simulate` yet ``describe()``
hashes only ``workload`` and ``seed`` — exactly MAYA053 must fire.
"""

import hashlib
import json
from dataclasses import dataclass

from .sim.run import simulate


@dataclass(frozen=True)
class KeyJob:
    workload: str
    seed: int = 0
    noise_gain: float = 1.0

    def describe(self) -> dict:
        # Defect under test: noise_gain is missing from the digest payload.
        return {"workload": self.workload, "seed": self.seed}

    def key(self) -> str:
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def execute_jobs_batched(job: KeyJob) -> float:
    return simulate(job.workload, job.seed, job.noise_gain)
