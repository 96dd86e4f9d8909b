"""Parallel execution engine + content-addressed trace cache.

Every simulation batch in the reproduction — the per-figure experiments
and the attack pipeline's trace collection — routes through
:func:`run_sessions`, which advances declarative :class:`SessionJob`
specs lock-step in chunks, fans the chunks out over worker processes and
collates the traces in job order, with results guaranteed bit-identical
to running each job alone.  See
:mod:`repro.exec.engine` for the determinism contract and
:mod:`repro.exec.cache` for the cache layout and environment knobs.
"""

from .batch import batch_key, execute_jobs_batched
from .cache import (
    DEFAULT_CACHE_DIR,
    LAYOUT_VERSION,
    PACK_SCHEMA,
    TraceCache,
    default_cache,
)
from .engine import resolve_workers, run_sessions
from .jobs import (
    CACHE_EPOCH,
    SessionJob,
    code_salt,
    register_factory,
)
from .registry import (
    MANIFEST_SCHEMA,
    RunRegistry,
    default_registry,
    record_run,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "LAYOUT_VERSION",
    "PACK_SCHEMA",
    "TraceCache",
    "default_cache",
    "MANIFEST_SCHEMA",
    "RunRegistry",
    "default_registry",
    "record_run",
    "batch_key",
    "execute_jobs_batched",
    "resolve_workers",
    "run_sessions",
    "CACHE_EPOCH",
    "SessionJob",
    "code_salt",
    "register_factory",
]
