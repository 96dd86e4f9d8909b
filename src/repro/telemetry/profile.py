"""Hierarchical wall-clock span profiler for the execution engine.

Telemetry (``repro.telemetry``) answers *what the simulation did* in
deterministic sim time; this module answers *where the engine spent
wall-clock time* doing it.  The two are kept rigorously apart:

* **Strictly out-of-band.**  A profiler sink is injected (ambient module
  state set by :func:`set_profiler` or ``REPRO_PROFILE``, read through
  :mod:`repro.host`);
  the default :class:`NullProfiler` reduces every span site to one
  attribute check.  Nothing in the simulation reads profiler state, and
  lint rule MAYA033 statically bans *any* profiler symbol — even
  fire-and-forget calls — from the simulation packages
  (machine/control/defenses/masks/core).  Only the exec layer and the
  bench harness may hold spans.
* **Deterministic identity, non-deterministic timing.**  A span's id is
  derived from its path through the span tree — parent id, span name,
  the caller-supplied ``key`` (a SessionJob content address, group
  digest, or similar), and a per-(parent, name, key) occurrence index —
  hashed to 16 hex chars.  Two profiled runs of the same job set
  therefore produce the same span ids and the same tree shape; only the
  ``t0_s``/``dur_s`` wall-clock fields differ.  Profile output is
  explicitly *excluded* from the byte-identity oracle
  (``python -m repro.telemetry diff``): it never touches
  ``session-*.jsonl``.
* **Buffered, flushed on unwind.**  Completed spans buffer in memory and
  are appended to ``profile.jsonl`` (one JSON object per line, headed by
  a ``maya.telemetry.profile.v1`` manifest) each time the span stack
  unwinds to empty — one write per engine run, not per span.

This file is one of the few sanctioned wall-clock sites (MAYA002): the
profiler measures the harness, not the simulation.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

from .. import host
from . import _dumps

__all__ = [
    "PROFILE_FILE",
    "PROFILE_SCHEMA",
    "NullProfiler",
    "SpanProfiler",
    "enabled",
    "get_profiler",
    "set_profiler",
    "span",
]

PROFILE_SCHEMA = "maya.telemetry.profile.v1"
PROFILE_FILE = "profile.jsonl"


class _NullSpan:
    """Shared no-op context manager returned by the NullProfiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullProfiler:
    """Default sink: every span site costs one attribute check."""

    enabled = False

    def span(self, name: str, key: object = None, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def flush(self) -> None:
        return None


class _Span:
    """One open span; closes onto its profiler's buffer on ``__exit__``."""

    __slots__ = ("profiler", "span_id", "parent_id", "name", "key", "attrs", "depth", "t0")

    def __init__(self, profiler, span_id, parent_id, name, key, attrs, depth) -> None:
        self.profiler = profiler
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.key = key
        self.attrs = attrs
        self.depth = depth
        self.t0 = 0.0

    def __enter__(self) -> "_Span":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.profiler._close(self, time.perf_counter())
        return False


class SpanProfiler:
    """Records a hierarchical span tree to ``<root>/profile.jsonl``.

    The root directory defaults to ``REPRO_PROFILE_DIR``, which defaults
    to the telemetry directory — so a profiled telemetry run lands both
    artifact families side by side.
    """

    enabled = True

    def __init__(self, root: object = None) -> None:
        self.root = Path(host.settings().profile_dir if root is None else root)
        self._stack: list = []
        self._occurrence: dict = {}
        self._buffer: list = []
        self._manifest_written = False

    def span(self, name: str, key: object = None, **attrs: object) -> _Span:
        parent_id = self._stack[-1].span_id if self._stack else ""
        slot = (parent_id, name, key)
        index = self._occurrence.get(slot, 0)
        self._occurrence[slot] = index + 1
        seed = f"{parent_id}|{name}|{key}|{index}"
        span_id = hashlib.sha256(seed.encode()).hexdigest()[:16]
        opened = _Span(self, span_id, parent_id, name, key, attrs, len(self._stack))
        self._stack.append(opened)
        return opened

    def _close(self, closing: _Span, t1: float) -> None:
        # Unwind to the closing span: an exception escaping a nested span
        # closes ancestors out of order; drop descendants still open.
        while self._stack and self._stack[-1] is not closing:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        record = {
            "type": "span",
            "id": closing.span_id,
            "parent": closing.parent_id,
            "name": closing.name,
            "depth": closing.depth,
            "t0_s": closing.t0,
            "dur_s": t1 - closing.t0,
        }
        if closing.key is not None:
            record["key"] = closing.key
        if closing.attrs:
            record.update(sorted(closing.attrs.items()))
        self._buffer.append(record)
        if not self._stack:
            self.flush()

    def flush(self) -> None:
        """Append buffered spans to ``profile.jsonl`` in one write."""
        if not self._buffer:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / PROFILE_FILE
        lines = []
        if not self._manifest_written and not path.exists():
            lines.append(
                _dumps({"type": "manifest", "schema": PROFILE_SCHEMA, "git_sha": host.git_sha()})
            )
        lines.extend(_dumps(record) for record in self._buffer)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        self._manifest_written = True
        self._buffer = []


_PROFILER = None


def get_profiler():
    """The ambient profiler (``REPRO_PROFILE`` env unless one was set)."""
    global _PROFILER
    if _PROFILER is None:
        _PROFILER = SpanProfiler() if host.settings().profile else NullProfiler()
    return _PROFILER


def set_profiler(profiler) -> None:
    """Inject a profiler sink; ``None`` re-derives from the environment."""
    global _PROFILER
    _PROFILER = profiler


def enabled() -> bool:
    return get_profiler().enabled


def span(name: str, key: object = None, **attrs: object):
    """Open a span on the ambient profiler (no-op under NullProfiler)."""
    return get_profiler().span(name, key=key, **attrs)
