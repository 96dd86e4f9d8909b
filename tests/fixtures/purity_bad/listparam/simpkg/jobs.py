"""Fixture: a batch entry reaches impure code only through list elements.

Every job field is hashed and the job class itself is pure.  The defects
sit in :mod:`.stages.log`: ``Stage.run`` and ``Probe.read`` store into
module-level containers, and the entry calls them only on the elements of
its ``list[Stage]`` and ``"list[Probe]"`` parameters, so the two MAYA052
findings fire only when a loop over such a parameter binds its class.
"""

import hashlib
import json
from dataclasses import asdict, dataclass

from .stages.log import Probe, Stage


@dataclass(frozen=True)
class ListJob:
    workload: str
    seed: int = 0

    def describe(self) -> dict:
        return asdict(self)

    def key(self) -> str:
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def execute_jobs_batched(
    jobs: "list[ListJob]", stages: list[Stage], probes: "list[Probe]"
) -> float:
    total = 0.0
    for job in jobs:
        for stage in stages:
            total += stage.run(job.workload, job.seed)
    for probe in probes:
        total += probe.read()
    return total
