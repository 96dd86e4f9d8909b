"""Declarative session jobs: everything needed to re-run one simulation.

A :class:`SessionJob` is a pure-data description of one ``(platform,
workload, defense, seed, run_id)`` simulation session — the unit of work
every experiment and the attack pipeline fan out over.  Because the job is
declarative (names, numbers and small tuples only), it can be

* pickled to a :class:`~concurrent.futures.ProcessPoolExecutor` worker,
  which rebuilds the defense factory on its side of the fork/spawn;
* hashed into a stable content address (:meth:`SessionJob.key`) for the
  trace cache, salted with a digest of every source a session can run
  (all of ``src/repro`` except the packages that only consume traces or
  watch the run), so stale traces can never survive a code change.

The spawn-keyed RNG scheme (:func:`repro.machine.rng.spawn`) makes every
session a deterministic function of its job spec, so executing the same
job alone, in a lock-step chunk, in a worker process, or from the cache
yields bit-identical traces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from pathlib import Path

from ..core.runtime import make_machine
from ..defenses.designs import DefenseFactory, is_design_name
from ..machine import PlatformSpec, SimulatedMachine, Trace
from ..workloads import get_workload, is_workload_name

__all__ = [
    "SessionJob",
    "register_factory",
    "code_salt",
    "CACHE_EPOCH",
]

#: Bump to invalidate every cached trace when simulation *semantics* change
#: without a source-text change (e.g. a numpy upgrade known to alter
#: results).  Source-text changes are caught automatically by the salt.
CACHE_EPOCH = 1

#: Packages that only consume traces or watch the run; the salt digests
#: every other ``src/repro`` source -- the simulation packages, ``exec``
#: (the control loop, the store and the engine) and the package root -- so
#: an edit anywhere a trace can come from invalidates every cached trace.
#: Over-salting costs only cache misses after an edit, so a package belongs
#: here only when nothing it defines can change a trace: ``telemetry`` runs
#: inside sessions, but the MAYA032 contract keeps its values out of them.
_UNSALTED_PACKAGES = (
    "analysis", "attacks", "bench", "experiments", "lint", "telemetry",
)


def _digest_simulation_sources(root: Path, unsalted: tuple, epoch: int) -> str:
    """SHA-256 over every ``*.py`` under ``root`` outside ``unsalted``."""
    digest = hashlib.sha256()
    digest.update(f"epoch={epoch}".encode())
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[0] in unsalted:
            continue
        digest.update(relative.as_posix().encode())
        digest.update(b"\x1f")
        digest.update(path.read_bytes())
        digest.update(b"\x1e")
    return digest.hexdigest()


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Digest of the salted sources (plus :data:`CACHE_EPOCH`).

    Memoized for the life of the process: the digest walks every salted
    source file, and ``key()`` is called per job.  The caveat is that a
    source edit made *while a process is running* is not picked up — the
    salt reflects the tree as it was at the first ``key()`` call.  That is
    the intended trade: processes are short-lived relative to edits, and
    any new process (CI, a rerun) re-digests from disk.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    return _digest_simulation_sources(root, _UNSALTED_PACKAGES, CACHE_EPOCH)


def _as_pairs(value: object) -> tuple:
    """Normalize a dict (or iterable of pairs) into sorted hashable pairs."""
    if value is None:
        return ()
    items = value.items() if isinstance(value, dict) else value
    return tuple(sorted((str(key), val) for key, val in items))


@lru_cache(maxsize=None)
def _spec_payload(spec: PlatformSpec) -> dict:
    """``asdict(spec)``, converted once per platform; callers copy it."""
    return asdict(spec)


@dataclass(frozen=True)
class SessionJob:
    """Pure-data spec of one simulation session (see module docstring)."""

    #: Platform the session runs on (frozen dataclass: picklable, hashable).
    spec: PlatformSpec
    #: Workload registry name (:func:`repro.workloads.get_workload`).
    workload: str
    #: Table V design name the victim deploys.
    defense: str
    #: Extra keyword arguments for the workload constructor, as sorted pairs.
    workload_kwargs: tuple = ()
    #: Seed the defense factory was built with.
    factory_seed: int = 0
    #: Factory-level MayaConfig overrides (e.g. ``sysid_intervals``).
    design_overrides: tuple = ()
    #: Session seed and run identifier — the RNG spawn keys.
    seed: int = 0
    run_id: object = 0
    duration_s: object = None
    interval_s: float = 0.020
    tick_s: float = 0.001
    max_duration_s: float = 600.0
    tail_s: float = 2.0
    record_temperature: bool = False
    workload_jitter: float = 0.08

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload_kwargs", _as_pairs(self.workload_kwargs))
        object.__setattr__(self, "design_overrides", _as_pairs(self.design_overrides))
        # Validate eagerly: one malformed job would otherwise fail a whole
        # lock-step batch mid-simulation instead of failing at submission.
        # The name checks are lookups: they build no workload or design.
        if not is_workload_name(self.workload):
            raise ValueError(f"unknown workload {self.workload!r}")
        if not is_design_name(self.defense):
            raise ValueError(f"unknown defense {self.defense!r}")
        if not (self.interval_s > 0 and self.tick_s > 0):
            raise ValueError(
                f"interval_s and tick_s must be positive, got "
                f"interval_s={self.interval_s!r}, tick_s={self.tick_s!r}"
            )
        if self.interval_s < self.tick_s:
            raise ValueError(
                f"interval_s={self.interval_s!r} is shorter than "
                f"tick_s={self.tick_s!r}"
            )
        if self.duration_s is not None and not self.duration_s >= self.interval_s:
            raise ValueError(
                f"duration_s={self.duration_s!r} must be None or at least "
                f"interval_s={self.interval_s!r}"
            )
        if not self.max_duration_s >= self.interval_s:
            raise ValueError(
                f"max_duration_s={self.max_duration_s!r} is shorter than "
                f"interval_s={self.interval_s!r}"
            )
        if not self.tail_s >= 0:
            raise ValueError(f"tail_s must be non-negative, got {self.tail_s!r}")

    @classmethod
    def for_factory(
        cls,
        factory: DefenseFactory,
        *,
        workload: str,
        defense: str,
        spec: PlatformSpec | None = None,
        **kwargs: object,
    ) -> "SessionJob":
        """Build a job whose declarative factory fields snapshot ``factory``."""
        return cls(
            spec=spec if spec is not None else factory.spec,
            workload=workload,
            defense=defense,
            factory_seed=factory.seed,
            design_overrides=_as_pairs(factory.design_overrides),
            **kwargs,
        )

    # -- content addressing -------------------------------------------

    def describe(self) -> dict:
        """Canonical JSON-ready description (the content-hash payload)."""
        payload = {field.name: getattr(self, field.name) for field in fields(self)}
        payload["spec"] = dict(_spec_payload(self.spec))
        payload["run_id"] = repr(self.run_id)
        payload["workload_kwargs"] = [list(pair) for pair in self.workload_kwargs]
        payload["design_overrides"] = [list(pair) for pair in self.design_overrides]
        return payload

    def key(self) -> str:
        """Stable content address of this job, salted with the code digest.

        The 64-hex-digit address is also the job's storage identity: the
        sharded trace store (:mod:`repro.exec.cache`) buckets entries by
        its first two digits, and run-registry manifests
        (:mod:`repro.exec.registry`) cite it to bind results to inputs.
        sha256's uniformity keeps the 256 shard buckets balanced.
        """
        digest = hashlib.sha256()
        digest.update(code_salt().encode())
        digest.update(b"\x1f")
        digest.update(
            json.dumps(self.describe(), sort_keys=True, default=repr).encode()
        )
        return digest.hexdigest()

    # -- execution ----------------------------------------------------

    def matches_factory(self, factory: DefenseFactory) -> bool:
        """Whether ``factory`` is the one this job describes."""
        return (
            factory.spec == self.spec
            and factory.seed == self.factory_seed
            and _as_pairs(factory.design_overrides) == self.design_overrides
        )

    def resolve_factory(self, factory: DefenseFactory | None = None) -> DefenseFactory:
        """The factory to build this job's defense with.

        ``factory`` is an in-process optimization only: it is used when it
        matches the job's declarative description (skipping a rebuild of
        the expensive Maya designs), otherwise an equivalent factory is
        built — and memoized per process — from the job fields alone.
        """
        if factory is None or not self.matches_factory(factory):
            factory = _factory_for(self)
        return factory

    def build_machine(self) -> "SimulatedMachine":
        """A fresh simulated machine seeded exactly as this job describes."""
        workload = get_workload(self.workload, **dict(self.workload_kwargs))
        return make_machine(
            self.spec,
            workload,
            seed=self.seed,
            run_id=self.run_id,
            tick_s=self.tick_s,
            record_temperature=self.record_temperature,
            workload_jitter=self.workload_jitter,
        )

    def execute(self, factory: DefenseFactory | None = None) -> Trace:
        """Run the session and return its trace (see :meth:`resolve_factory`).

        A one-job lock-step batch.
        """
        from .batch import execute_jobs_batched

        return execute_jobs_batched([self], self.resolve_factory(factory))[0]


#: Per-process factory memo: Maya designs (sysid + synthesis) are expensive,
#: so each worker builds them at most once per declarative description.
_FACTORY_CACHE: dict = {}


def _factory_key(spec: PlatformSpec, seed: int, overrides: tuple) -> tuple:
    return (spec, int(seed), overrides)


def _factory_for(job: SessionJob) -> DefenseFactory:
    key = _factory_key(job.spec, job.factory_seed, job.design_overrides)
    factory = _FACTORY_CACHE.get(key)
    if factory is None:
        factory = DefenseFactory(
            job.spec, seed=job.factory_seed,
            design_overrides=dict(job.design_overrides),
        )
        _FACTORY_CACHE[key] = factory
    return factory


def register_factory(factory: DefenseFactory) -> None:
    """Memoize ``factory`` under its declarative description.

    Called by the engine *before* creating a worker pool: with the
    (default) fork start method the workers inherit the memo, so designs
    already built in the parent are never rebuilt in the children.
    """
    key = _factory_key(factory.spec, factory.seed, _as_pairs(factory.design_overrides))
    _FACTORY_CACHE[key] = factory

