"""Fixture stages that log into module state (impure)."""

_STAGE_LOG: list = []
_PROBE_LOG: dict = {}


class Stage:
    def run(self, workload: str, seed: int) -> float:
        # MAYA052: a store into a module-level container survives the job.
        _STAGE_LOG.append(workload)
        return float(len(workload) + seed)


class Probe:
    def read(self) -> float:
        # MAYA052: a store into a module-level container survives the job.
        _PROBE_LOG["reads"] = 1
        return 0.0
