"""What the program reads of its host: the ``REPRO_*`` knobs and the git SHA.

This is the one module of :mod:`repro` that reads the environment (tested).
:func:`settings` parses every ``REPRO_*`` variable into a frozen
:class:`Settings`, whose field ``cache_dir`` is ``REPRO_CACHE_DIR`` and so
on.  An unset or blank variable takes the field's default; a flag is on
when its value is ``1``, ``true``, ``yes`` or ``on``; a malformed or
out-of-range number raises ``ValueError`` naming the variable.  Nothing is
memoized, so a variable changed while the process runs is seen by the next
call; no per-interval path calls it.  The module imports nothing from
:mod:`repro`.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = [
    "Settings",
    "atomic_write",
    "git_sha",
    "positive_float",
    "positive_int",
    "settings",
]


@dataclass(frozen=True)
class Settings:
    """The ``REPRO_*`` knobs; each field is ``REPRO_<FIELD NAME>``."""

    #: Worker processes :func:`~repro.exec.run_sessions` spreads lock-step
    #: chunks over when a call does not pass ``workers`` (1 = in-process).
    workers: int = 1
    #: Seconds a pooled chunk may take before it is redone in-process.
    job_timeout_s: float = 600.0
    #: Serve every ``run_sessions`` call from the default trace store.
    cache: bool = False
    cache_dir: str = ".maya-cache"
    #: LRU size bound of the trace store, sidecars included.
    cache_max_mb: float = 512.0
    #: Record a run manifest for every bench, attack and trace-recording run.
    registry: bool = False
    registry_dir: str = ".maya-registry"
    #: Record session event streams, ``ops.jsonl`` and ``metrics.json``.
    telemetry: bool = False
    telemetry_dir: str = ".maya-telemetry"
    #: Record the engine's wall-clock span tree to ``profile.jsonl``.
    profile: bool = False
    #: Span-log directory; unset, the telemetry directory.
    profile_dir: str = ".maya-telemetry"


def positive_int(value: object, name: str) -> int:
    """``value`` as a whole number of at least 1, else ``ValueError``."""
    try:
        number = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        number = 0
    if number < 1:
        raise ValueError(f"{name} must be a whole number >= 1, got {value!r}")
    return number


def positive_float(value: object, name: str) -> float:
    """``value`` as a positive finite number, else ``ValueError``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not 0.0 < number < math.inf:
        raise ValueError(f"{name} must be a positive number, got {value!r}")
    return number


def _flag(raw: str, name: str) -> bool:
    return raw.lower() in ("1", "true", "yes", "on")


#: How each non-``str`` :class:`Settings` field type is parsed from its variable.
_PARSERS = {"bool": _flag, "int": positive_int, "float": positive_float}


def settings() -> Settings:
    """The knobs as the environment sets them now (see the module docstring)."""
    values: dict = {}
    for field in fields(Settings):
        name = f"REPRO_{field.name.upper()}"
        raw = os.environ.get(name, "").strip()
        if raw:
            parse = _PARSERS.get(field.type)
            values[field.name] = raw if parse is None else parse(raw, name)
    values.setdefault("profile_dir", values.get("telemetry_dir", Settings.telemetry_dir))
    return Settings(**values)


@functools.cache
def git_sha() -> "str | None":
    """The repository HEAD SHA (``GITHUB_SHA`` first), or None outside git.

    Resolved at the first call, not at import, and kept for the process.
    """
    import subprocess

    sha = os.environ.get("GITHUB_SHA", "").strip()
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def atomic_write(path: Path, content: object) -> None:
    """Write ``content`` (bytes, UTF-8 text, or a callable that writes into
    the open binary file) to a temp file beside ``path``, then rename it
    over ``path``: no reader sees a torn file, and concurrent writers of
    one path are last-writer-wins."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            if callable(content):
                content(handle)
            else:
                handle.write(content.encode() if isinstance(content, str) else content)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
