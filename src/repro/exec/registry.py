"""Manifest-backed run registry.

Every bench, attack and figure run can be *bound* to the exact inputs
that produced it: the content addresses of its session jobs, the code
salt those addresses embed, the repository SHA, and a content digest of
each artifact it wrote.  The binding is a small JSON manifest
(``maya.exec.run-manifest.v1``) stored under the registry root::

    <root>/runs/<run_id>.json     one manifest per run
    <root>/index.jsonl            append-only ``{run_id, kind, name}`` index

The run id is the hash of the manifest's own payload — two runs with
identical jobs, code and results share one id, so the registry
deduplicates naturally and a re-run that *changes* anything (a job key, a
result number, an artifact byte) lands under a new id.  Manifests carry
no wall-clock timestamps: like everything else in this layer they are a
pure function of their inputs, which keeps ``diff`` meaningful.

:func:`record_run` is the ambient entry point the bench, the attack
pipeline and the experiment harness call — a no-op unless
``REPRO_REGISTRY`` is on (:mod:`repro.host`), so the registry costs
nothing when disabled.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .. import host, telemetry
from .jobs import code_salt

__all__ = [
    "MANIFEST_SCHEMA",
    "RunRegistry",
    "default_registry",
    "record_run",
]

MANIFEST_SCHEMA = "maya.exec.run-manifest.v1"


def _dumps(payload: object) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def _artifact_digest(path: Path) -> "str | None":
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class RunRegistry:
    """Directory of run manifests binding results to their inputs."""

    def __init__(self, root: object = None) -> None:
        """A registry at ``root`` (default ``REPRO_REGISTRY_DIR``)."""
        self.root = Path(host.settings().registry_dir if root is None else root)

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    def _manifest_path(self, run_id: str) -> Path:
        return self.root / "runs" / f"{run_id}.json"

    # -- write ---------------------------------------------------------

    def record(self, kind: str, name: str, jobs=(), artifacts=(),
               results: object = None) -> str:
        """Store one run manifest; returns its content-derived ``run_id``.

        * ``kind`` — ``"bench"``, ``"attack"``, ``"traces"``, ...;
        * ``jobs`` — the :class:`~repro.exec.jobs.SessionJob` group the run
          simulated (only their content addresses are stored);
        * ``artifacts`` — paths of files the run wrote (stored with a
          sha256 of their bytes);
        * ``results`` — a small JSON-serializable summary of the outcome.
        """
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "kind": str(kind),
            "name": str(name),
            "code_salt": code_salt(),
            "git_sha": host.git_sha(),
            "jobs": sorted({job.key() for job in jobs}),
            "artifacts": [
                {"path": str(path), "sha256": _artifact_digest(Path(path))}
                for path in artifacts
            ],
            "results": results if results is not None else {},
        }
        run_id = hashlib.sha256(_dumps(manifest).encode()).hexdigest()[:16]
        manifest["run_id"] = run_id
        host.atomic_write(self._manifest_path(run_id),
                          json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        line = _dumps({"run_id": run_id, "kind": manifest["kind"],
                       "name": manifest["name"]}) + "\n"
        fd = os.open(self.index_path,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        telemetry.count("exec.registry.recorded")
        return run_id

    # -- read ----------------------------------------------------------

    def get(self, run_id: str) -> dict:
        """The stored manifest for ``run_id`` (KeyError if unknown)."""
        try:
            return json.loads(self._manifest_path(run_id).read_text())
        except OSError:
            raise KeyError(f"unknown run id {run_id!r}") from None

    def list_runs(self) -> list:
        """Index rows ``{run_id, kind, name}``, oldest first, deduplicated."""
        try:
            lines = self.index_path.read_text().splitlines()
        except OSError:
            return []
        rows: dict = {}
        for line in lines:
            try:
                row = json.loads(line)
            except ValueError:
                continue
            run_id = row.get("run_id")
            if isinstance(run_id, str) and run_id:
                rows[run_id] = row
        return list(rows.values())

    def diff(self, run_id: str, other_id: str) -> dict:
        """Field-level differences between two run manifests.

        Returns ``{field: {"a": ..., "b": ...}}`` for every top-level
        field that differs; job-key sets are summarized as added/removed
        counts plus the key lists.
        """
        a = self.get(run_id)
        b = self.get(other_id)
        delta: dict = {}
        fields = sorted((set(a) | set(b)) - {"run_id"})
        for field in fields:
            va, vb = a.get(field), b.get(field)
            if va == vb:
                continue
            if field == "jobs":
                sa, sb = set(va or ()), set(vb or ())
                delta[field] = {
                    "added": sorted(sb - sa),
                    "removed": sorted(sa - sb),
                    "shared": len(sa & sb),
                }
            else:
                delta[field] = {"a": va, "b": vb}
        return delta


def default_registry() -> "RunRegistry | None":
    """The env-gated registry: enabled only when ``REPRO_REGISTRY`` is set."""
    return RunRegistry() if host.settings().registry else None


def record_run(kind: str, name: str, jobs=(), artifacts=(),
               results: object = None) -> "str | None":
    """Record a run manifest in the default registry (no-op when disabled)."""
    registry = default_registry()
    if registry is None:
        return None
    return registry.record(kind, name, jobs=jobs, artifacts=artifacts,
                           results=results)
