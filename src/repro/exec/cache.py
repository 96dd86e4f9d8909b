"""Sharded content-addressed trace store.

Every entry is a *pack*: one uncompressed ``.npz`` (``np.savez``, schema
``maya.trace.pack.npz.v1``) holding the stacked ``(B, ...)`` arrays of
``B`` sessions that share array shapes, read back with ``np.load``.
Sessions are addressed by the job's content address
(:meth:`SessionJob.key` — a hash of the full declarative job spec plus a
digest of the simulation sources).  Re-running a benchmark or iterating
on the attacker therefore never re-simulates an unchanged session, while
*any* edit to the simulation code changes the salt and transparently
invalidates every stale entry.

Layout (v2)::

    <root>/journal.jsonl                     append-only stats/LRU journal
    <root>/shards/<id[:2]>/<key>.npz         one-session pack
    <root>/shards/<d[:2]>/pack-<d>.npz       pack of a shape class of ≥2
    <root>/shards/<id[:2]>/<key>.events.jsonl   telemetry sidecar

Entries fan out into 256 shard directories by content-address prefix so no
single directory grows unboundedly.

Properties:

* **atomic writes** — entries are written to a temp file and
  ``os.replace``d into place, so readers never observe a torn file and
  concurrent writers of the same key are last-writer-wins with identical
  content;
* **journaled accounting** — every ``put``/hit/evict appends one JSONL
  record to ``journal.jsonl`` (a single ``O_APPEND`` write, so concurrent
  writers interleave whole records).  Entry sizes — *including* sidecar
  bytes, so ``REPRO_CACHE_MAX_MB`` bounds real disk usage — and the LRU
  order are replayed from the journal; eviction never rescans the shard
  tree.  A full tree scan happens only on recovery (journal missing but
  shards present) and is counted in ``stats()["tree_scans"]``.  Handles in
  other processes converge by tailing the journal from their last offset;
  the journal is compacted in place once it grows far past the live entry
  count;
* **LRU size bounding** — after each write the store is trimmed to
  ``max_bytes`` (``REPRO_CACHE_MAX_MB``, default 512 MB), evicting the
  least-recently-used entries (hits move an entry to the journal's tail).
  The newest entry is never evicted, and eviction deletes the entry's
  telemetry sidecars with it;
* **bulk I/O** — :meth:`get_many`/:meth:`put_many` resolve a whole job
  group against one journal refresh and one journal append.
  :meth:`put_many` groups a chunk's traces by array shape and writes each
  shape class as one pack, so a fixed-duration lock-step chunk is one
  ``pack-<digest>.npz`` and a lone or ragged trace a one-session pack at
  its key's path; a pack hits and evicts as a unit, and is read once
  however many of its sessions a group asks for;
* **corruption tolerance** — an unreadable entry (truncated, garbled,
  not a zip archive at all, or not a pack) is treated as a miss and
  overwritten by the fresh simulation; torn journal tails and foreign
  lines are skipped;
* **telemetry sidecars** — when recording is enabled
  (:mod:`repro.telemetry`), each entry carries a ``.events.jsonl`` sidecar
  holding the session's telemetry stream, replayed byte-for-byte on a
  hit so cached and fresh runs are observationally identical (a torn
  sidecar is replayed as absent).  Hit, miss
  and eviction counts also flow into the ambient metrics registry;
* **merge** — :meth:`export_archive` writes the shard tree as a
  deterministic tarball and :meth:`import_archive` merges one into this
  store, skipping keys it already holds (content addressing makes the
  merge conflict-free).

All shard-tree enumeration is wrapped directly in ``sorted(...)``
(MAYA031): store behaviour is a function of store *content*, never of
readdir order.

Environment:

* ``REPRO_CACHE=1`` — enable the default cache for every
  :func:`~repro.exec.engine.run_sessions` call;
* ``REPRO_CACHE_DIR`` — cache directory (default ``.maya-cache/``);
* ``REPRO_CACHE_MAX_MB`` — size bound in megabytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import tarfile
import zipfile
import zlib
from pathlib import Path, PurePosixPath

import numpy as np

from .. import telemetry
from ..machine import Trace
from ..telemetry import profile

__all__ = [
    "TraceCache",
    "default_cache",
    "DEFAULT_CACHE_DIR",
    "LAYOUT_VERSION",
    "PACK_SCHEMA",
]

DEFAULT_CACHE_DIR = ".maya-cache"
_DEFAULT_MAX_MB = 512.0
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: On-disk layout generation (v2 = sharded + journal).
LAYOUT_VERSION = 2
#: Schema tag of every entry.
PACK_SCHEMA = "maya.trace.pack.npz.v1"

_JOURNAL = "journal.jsonl"
_SHARDS = "shards"
#: Sidecar files an entry may carry per session key.
_SIDECAR_SUFFIXES = (".events.jsonl",)
#: What reading a damaged entry raises: a truncated or garbled ``.npz`` fails
#: in the zip layer (CRC-32 included), the npy header parser or the schema
#: check, and a compressed file of the older per-session format in the
#: decompressor or the schema check.
_UNREADABLE = (OSError, ValueError, KeyError, IndexError, EOFError,
               zipfile.BadZipFile, zlib.error)
#: Compact the journal once it holds this many records beyond the live set.
_COMPACT_SLACK = 4096

#: Scalar and per-interval/per-tick fields packed per session (stacked
#: along axis 0; the sessions of one pack share array shapes).
_PACK_STR_FIELDS = ("workload", "platform", "defense")
_PACK_SCALAR_FIELDS = ("tick_s", "interval_s", "completed_at_s")
_PACK_ARRAY_FIELDS = ("power_w", "measured_w", "target_w", "settings",
                      "temperature_c")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def _file_bytes(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _is_group(entry_id: str) -> bool:
    return entry_id.startswith("g-")


class TraceCache:
    """Sharded store of content-addressed, LRU-bounded trace entries."""

    def __init__(self, root: object = None, max_bytes: object = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", "").strip() or DEFAULT_CACHE_DIR
        self.root = Path(root)
        if max_bytes is None:
            env = os.environ.get("REPRO_CACHE_MAX_MB", "").strip()
            try:
                max_mb = float(env) if env else _DEFAULT_MAX_MB
            except ValueError:
                max_mb = math.nan
            if not 0.0 < max_mb < math.inf:
                raise ValueError(f"REPRO_CACHE_MAX_MB must be a positive number, got {env!r}")
            max_bytes = max_mb * 1e6
        self.max_bytes = int(max_bytes)
        #: Runtime counters for this cache handle (not persisted).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Full shard-tree scans this handle performed (recovery only —
        #: steady-state operation must keep this at 0; the bench asserts it).
        self.tree_scans = 0
        # Journal-replayed state: entry id -> [bytes, (keys...)], in LRU
        # order (dict insertion order; a hit re-inserts at the tail).
        self._entries: dict | None = None
        self._by_key: dict = {}
        self._total_bytes = 0
        self._journal_pos = 0
        self._journal_ino: object = None
        self._records_seen = 0
        # Lifetime compaction count, carried in the journal's "layout"
        # header so fresh handles (and the stats CLI) see it.
        self._compactions = 0

    # -- paths ---------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.root / _JOURNAL

    @staticmethod
    def _shard_of(entry_id: str) -> str:
        # Group ids are "g-<digest>": shard by the digest prefix so packs
        # spread over the same 256 buckets as single entries.
        return entry_id[2:4] if _is_group(entry_id) else entry_id[:2]

    def _entry_path(self, entry_id: str) -> Path:
        name = (f"pack-{entry_id[2:]}.npz" if _is_group(entry_id)
                else f"{entry_id}.npz")
        return self.root / _SHARDS / self._shard_of(entry_id) / name

    def _path(self, job) -> Path:
        """Where ``job``'s one-session pack lives."""
        key = job.key()
        return self.root / _SHARDS / key[:2] / f"{key}.npz"

    def _key_sidecar(self, key: str, suffix: str) -> Path:
        return self.root / _SHARDS / key[:2] / f"{key}{suffix}"

    def _sidecar(self, path: Path) -> Path:
        """The telemetry sidecar of a cache entry (``<key>.events.jsonl``)."""
        return path.with_name(path.stem + ".events.jsonl")

    # -- journal -------------------------------------------------------

    def _ensure_state(self) -> None:
        if self._entries is not None:
            return
        self._entries = {}
        self._by_key = {}
        self._total_bytes = 0
        self._journal_pos = 0
        self._records_seen = 0
        self._compactions = 0
        if self.journal_path.is_file():
            self._replay()
        elif (self.root / _SHARDS).is_dir():
            self._rebuild_from_scan()

    def _replay(self) -> None:
        """Apply journal records from ``_journal_pos`` to the current end.

        Only complete lines are consumed; a torn tail (a writer crashed or
        is mid-append) stays unconsumed until it gains its newline.
        Malformed lines are skipped — one corrupt record costs its entry's
        accounting, never the store.
        """
        try:
            with open(self.journal_path, "rb") as stream:
                stat = os.fstat(stream.fileno())
                stream.seek(self._journal_pos)
                data = stream.read()
        except OSError:
            return
        end = data.rfind(b"\n") + 1
        with profile.span("cache.journal_replay", bytes=end):
            for line in data[:end].splitlines():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                self._apply(record)
                self._records_seen += 1
        self._journal_pos += end
        self._journal_ino = (stat.st_dev, stat.st_ino)

    def _refresh(self) -> None:
        """Converge on journal records other handles appended since."""
        self._ensure_state()
        try:
            stat = self.journal_path.stat()
        except OSError:
            return
        ident = (stat.st_dev, stat.st_ino)
        if self._journal_ino != ident or stat.st_size < self._journal_pos:
            # The journal was compacted (or replaced) under us: replay the
            # new file from the start.
            self._entries = {}
            self._by_key = {}
            self._total_bytes = 0
            self._journal_pos = 0
            self._records_seen = 0
            self._compactions = 0
            self._replay()
        elif stat.st_size > self._journal_pos:
            self._replay()

    def _apply(self, record: dict) -> None:
        op = record.get("op")
        if op == "put":
            entry_id = record.get("id")
            if not isinstance(entry_id, str) or not entry_id:
                return
            keys = tuple(k for k in (record.get("keys") or ())
                         if isinstance(k, str))
            nbytes = int(record.get("bytes") or 0)
            old = self._entries.pop(entry_id, None)
            if old is not None:
                self._total_bytes -= old[0]
            self._entries[entry_id] = [nbytes, keys]
            self._total_bytes += nbytes
            for key in keys:
                self._by_key[key] = entry_id
        elif op == "touch":
            entry = self._entries.pop(record.get("id"), None)
            if entry is not None:
                self._entries[record["id"]] = entry  # move to MRU tail
        elif op == "resize":
            entry = self._entries.get(record.get("id"))
            if entry is not None:
                nbytes = int(record.get("bytes") or 0)
                self._total_bytes += nbytes - entry[0]
                entry[0] = nbytes
        elif op == "evict":
            entry = self._entries.pop(record.get("id"), None)
            if entry is not None:
                self._total_bytes -= entry[0]
                for key in entry[1]:
                    if self._by_key.get(key) == record.get("id"):
                        del self._by_key[key]
        elif op == "clear":
            self._entries.clear()
            self._by_key.clear()
            self._total_bytes = 0
        elif op == "layout":
            # Genesis/compaction header: carries the cumulative compaction
            # count so it survives the journal rewrite that produced it.
            self._compactions = max(
                self._compactions, int(record.get("compactions") or 0)
            )
        # Unknown ops: ignored.

    def _commit(self, records: list) -> None:
        """Append ``records`` to the journal, then converge by replay.

        State changes flow *only* through journal replay — what this
        handle believes is exactly what any other handle replaying the
        same journal believes.  On an unwritable journal (read-only
        store) the records are applied in memory only.
        """
        if not records:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = "".join(_dumps(r) + "\n" for r in records).encode()
        try:
            fd = os.open(self.journal_path,
                         os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
        except OSError:
            for record in records:
                self._apply(record)
            return
        self._refresh()
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rewrite the journal as one ``put`` per live entry (LRU order)."""
        if self._records_seen <= len(self._entries) + _COMPACT_SLACK:
            return
        lines = [_dumps({"op": "layout", "version": LAYOUT_VERSION,
                         "compactions": self._compactions + 1})]
        for entry_id, (nbytes, keys) in self._entries.items():
            lines.append(_dumps({"op": "put", "id": entry_id,
                                 "bytes": nbytes, "keys": list(keys)}))
        data = ("\n".join(lines) + "\n").encode()
        tmp = self.journal_path.with_name(f".{_JOURNAL}.{os.getpid()}.tmp")
        with profile.span("cache.compact", entries=len(self._entries)):
            try:
                tmp.write_bytes(data)
                os.replace(tmp, self.journal_path)
            except OSError:
                return
            finally:
                tmp.unlink(missing_ok=True)
        self._compactions += 1
        telemetry.count("exec.cache.compactions")
        try:
            stat = self.journal_path.stat()
            self._journal_ino = (stat.st_dev, stat.st_ino)
        except OSError:
            self._journal_ino = None
        self._journal_pos = len(data)
        self._records_seen = len(self._entries) + 1

    # -- recovery ------------------------------------------------------

    def _rebuild_from_scan(self) -> None:
        """Re-derive the journal from the shard tree (recovery path).

        Taken only when a sharded tree exists without a journal (deleted
        or imported out-of-band); counted in ``tree_scans`` so the bench
        can assert steady-state operation never lands here.
        """
        self.tree_scans += 1
        telemetry.count("exec.cache.tree_scans")
        stamped = []
        for shard in sorted((self.root / _SHARDS).iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.npz")):
                if path.name.startswith("."):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                stamped.append((stat.st_mtime, path.name, path))
        records = []
        for _, _, path in sorted(stamped):  # oldest first = LRU order
            record = self._scan_record(path)
            if record is not None:
                records.append(record)
        self._commit(records)

    def _scan_record(self, path: Path) -> dict | None:
        if path.name.startswith("pack-"):
            entry_id = "g-" + path.name[len("pack-"):-len(".npz")]
            try:
                with np.load(path) as data:
                    keys = _pack_keys(data)
            except _UNREADABLE:
                return None
        else:
            entry_id = path.stem
            keys = [path.stem]
        nbytes = _file_bytes(path)
        for key in keys:
            for suffix in _SIDECAR_SUFFIXES:
                nbytes += _file_bytes(self._key_sidecar(key, suffix))
        return {"op": "put", "id": entry_id, "bytes": nbytes, "keys": keys}

    # -- lookup --------------------------------------------------------

    def get(self, job) -> Trace | None:
        """The cached trace for ``job``, or None (counted as a miss)."""
        return self.get_many([job])[0]

    def get_many(self, jobs) -> list:
        """Cached traces for ``jobs`` (None per miss), in job order.

        One journal refresh and at most one journal append (the LRU
        touches) cover the whole group, and a pack is read once however
        many of its sessions the group asks for.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        self._refresh()
        results: list = [None] * len(jobs)
        touched: dict = {}
        packs: dict = {}
        for index, job in enumerate(jobs):
            key = job.key()
            entry_id = self._by_key.get(key)
            trace = None
            if entry_id is not None:
                trace = self._load_entry(entry_id, key, packs)
            if trace is None:
                self.misses += 1
                telemetry.count("exec.cache.misses")
                continue
            results[index] = trace
            touched[entry_id] = True
            self.hits += 1
            telemetry.count("exec.cache.hits")
            telemetry.restore_session_events(
                self._key_sidecar(key, ".events.jsonl"), job
            )
        self._commit([{"op": "touch", "id": entry_id} for entry_id in touched])
        return results

    def _load_entry(self, entry_id: str, key: str, packs: dict):
        pack = packs.get(entry_id)
        if pack is None:
            with profile.span("cache.pack_read", key=entry_id):
                try:
                    pack = _load_pack(self._entry_path(entry_id))
                except _UNREADABLE:
                    pack = {}, {}
            packs[entry_id] = pack
        rows, columns = pack
        if key not in rows:
            return None
        return _pack_trace(columns, rows[key])

    # -- storage -------------------------------------------------------

    def put(self, job, trace: Trace) -> None:
        """Store ``trace`` under the job's content address (atomically)."""
        self.put_many([job], [trace])

    def put_many(self, jobs, traces) -> None:
        """Store a job group in one journal transaction.

        The traces are grouped by array shape and each shape class is
        written as one pack: ≥2 sessions as a ``pack-<digest>.npz`` group
        entry (a fixed-duration lock-step chunk is one), a lone session as
        a one-session pack at its key's own path.  Either way every key
        serves per-session ``get`` calls.  A pack whose write raises
        ``OSError`` (a full disk, say) is counted as
        ``exec.cache.put_errors`` and left out of the journal.
        """
        jobs = list(jobs)
        traces = list(traces)
        if len(jobs) != len(traces):
            raise ValueError(
                f"put_many: {len(jobs)} jobs but {len(traces)} traces"
            )
        if not jobs:
            return
        self._ensure_state()
        classes: dict = {}
        for job, trace in zip(jobs, traces):
            shape = tuple(np.shape(getattr(trace, name)) for name in _PACK_ARRAY_FIELDS)
            classes.setdefault(shape, []).append((job, trace))
        written = [self._put_pack(members) for members in classes.values()]
        records = [record for record in written if record is not None]
        telemetry.count("exec.cache.puts", len(records))
        self._commit(records)
        self._evict()

    def _put_pack(self, members) -> "dict | None":
        """Write ``(job, trace)`` pairs as one pack; its journal record.

        A full or failing disk costs the store an entry, never the caller
        its traces: a pack whose write fails returns None and is not
        journaled, so its keys stay misses and recompute.
        """
        keys = [job.key() for job, _ in members]
        if len(keys) == 1:
            entry_id = keys[0]
        else:
            digest = hashlib.sha256("\x1f".join(keys).encode()).hexdigest()[:32]
            entry_id = f"g-{digest}"
        path = self._entry_path(entry_id)
        try:
            with profile.span("cache.pack_write", key=entry_id, sessions=len(keys)):
                _atomic_write(path, lambda tmp: _save_pack(
                    tmp, keys, [trace for _, trace in members]))
            nbytes = _file_bytes(path)
            for (job, _), key in zip(members, keys):
                nbytes += self._sidecar_bytes(job, key)
        except OSError:
            telemetry.count("exec.cache.put_errors")
            return None
        return {"op": "put", "id": entry_id, "bytes": nbytes, "keys": keys}

    def _sidecar_bytes(self, job, key: str) -> int:
        """Store the job's telemetry sidecar; return all sidecar bytes."""
        sidecar = self._key_sidecar(key, ".events.jsonl")
        written = telemetry.store_session_events(sidecar, job)
        if not written:
            # Recording is off (or the session left no stream): a sidecar
            # from an earlier recording run still occupies disk — count it.
            written = _file_bytes(sidecar)
        return written

    # -- maintenance ---------------------------------------------------

    def entries(self) -> list:
        """Live entries as ``(path, accounted_bytes)``, LRU first."""
        self._refresh()
        return [(self._entry_path(entry_id), entry[0])
                for entry_id, entry in self._entries.items()]

    def _delete_entry_files(self, entry_id: str) -> None:
        self._entry_path(entry_id).unlink(missing_ok=True)
        _, keys = self._entries.get(entry_id, (0, ()))
        for key in keys:
            if self._by_key.get(key) != entry_id:
                # The key was re-stored under a newer entry; its sidecars
                # belong to that entry now.
                continue
            for suffix in _SIDECAR_SUFFIXES:
                self._key_sidecar(key, suffix).unlink(missing_ok=True)

    def _evict(self) -> None:
        if self._total_bytes <= self.max_bytes:
            # Fast path: the journaled total proves no eviction is needed —
            # no syscalls at all.
            return
        self._refresh()
        projected = self._total_bytes
        victims = []
        entry_ids = list(self._entries)
        # Oldest first; the most recent entry is always kept so a single
        # oversized trace cannot wipe the store it just entered.
        for entry_id in entry_ids[:-1]:
            if projected <= self.max_bytes:
                break
            victims.append(entry_id)
            projected -= self._entries[entry_id][0]
        records = []
        with profile.span("cache.evict", victims=len(victims)):
            for entry_id in victims:
                self._delete_entry_files(entry_id)
                records.append({"op": "evict", "id": entry_id})
                self.evictions += 1
                telemetry.count("exec.cache.evictions")
            self._commit(records)

    def stats(self) -> dict:
        self._refresh()
        return {
            "dir": str(self.root),
            "layout": f"sharded-v{LAYOUT_VERSION}",
            "entries": len(self._entries),
            "sessions": len(self._by_key),
            "total_bytes": int(self._total_bytes),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "tree_scans": self.tree_scans,
            "journal_records": self._records_seen,
            "compactions": self._compactions,
            "shards": self._shard_distribution(),
        }

    def _shard_distribution(self) -> dict:
        """Entry-count spread over occupied shards, from journaled state.

        Derived from ``_entries`` alone (no directory walk), so it costs
        nothing beyond the refresh ``stats`` already performs.
        """
        per_shard: dict = {}
        for entry_id in self._entries:
            shard = self._shard_of(entry_id)
            per_shard[shard] = per_shard.get(shard, 0) + 1
        counts = sorted(per_shard.values())
        if not counts:
            return {"occupied": 0, "entries_min": 0,
                    "entries_median": 0.0, "entries_max": 0}
        middle = len(counts) // 2
        if len(counts) % 2:
            median = float(counts[middle])
        else:
            median = (counts[middle - 1] + counts[middle]) / 2.0
        return {
            "occupied": len(counts),
            "entries_min": counts[0],
            "entries_median": median,
            "entries_max": counts[-1],
        }

    def clear(self) -> int:
        """Remove every entry (and stale temp file); returns the count."""
        self._refresh()
        removed = 0
        shards_root = self.root / _SHARDS
        if shards_root.is_dir():
            for shard in sorted(shards_root.iterdir()):
                if not shard.is_dir():
                    continue
                for path in sorted(shard.iterdir()):
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    if path.suffix == ".npz" and not path.name.startswith("."):
                        removed += 1
                try:
                    shard.rmdir()
                except OSError:
                    pass
        if self.root.is_dir():
            # Stale journal temp files a crashed compaction left at the root.
            for path in sorted(self.root.glob(".*.tmp")):
                path.unlink(missing_ok=True)
        self._commit([{"op": "clear"}])
        self._maybe_compact_after_clear()
        return removed

    def _maybe_compact_after_clear(self) -> None:
        # A cleared store's journal is all dead weight: compact eagerly.
        if self._entries is not None and not self._entries:
            self._records_seen = len(self._entries) + _COMPACT_SLACK + 1
            self._maybe_compact()

    # -- merge ---------------------------------------------------------

    def export_archive(self, archive_path) -> dict:
        """Write the shard tree as a deterministic (bytewise) tarball.

        Members are sorted, timestamps zeroed and ownership stripped, so
        two stores with identical content export identical archives.
        """
        self._refresh()
        archive_path = Path(archive_path)
        archive_path.parent.mkdir(parents=True, exist_ok=True)
        files = 0
        with tarfile.open(archive_path, "w") as archive:
            shards_root = self.root / _SHARDS
            if shards_root.is_dir():
                for shard in sorted(shards_root.iterdir()):
                    if not shard.is_dir():
                        continue
                    for path in sorted(shard.iterdir()):
                        if path.name.startswith(".") or not path.is_file():
                            continue
                        data = path.read_bytes()
                        info = tarfile.TarInfo(
                            f"{_SHARDS}/{shard.name}/{path.name}")
                        info.size = len(data)
                        info.mtime = 0
                        info.uid = info.gid = 0
                        info.uname = info.gname = ""
                        archive.addfile(info, io.BytesIO(data))
                        files += 1
        telemetry.count("exec.cache.exported", files)
        return {"archive": str(archive_path), "files": files}

    def import_archive(self, archive_path) -> dict:
        """Merge another store's exported tarball into this one.

        Content addressing makes the merge conflict-free: a member whose
        target file already exists is skipped (identical content by
        construction).  Only regular files laid out as
        ``shards/<shard>/<name>`` are accepted.
        """
        self._refresh()
        added: list = []
        skipped = 0
        with tarfile.open(archive_path, "r:*") as archive:
            for member in archive:
                target = self._import_target(member)
                if target is None:
                    continue
                if target.exists():
                    skipped += 1
                    continue
                extracted = archive.extractfile(member)
                if extracted is None:
                    continue
                data = extracted.read()
                _atomic_write(target, lambda tmp: tmp.write_bytes(data))
                added.append(target)
        # Second pass so every imported entry's sidecars — possibly in
        # other shards of the archive — are already on disk when sized.
        records = []
        for path in added:
            if path.suffix != ".npz":
                continue
            record = self._scan_record(path)
            if record is not None and record["id"] not in self._entries:
                records.append(record)
        self._commit(records)
        self._evict()
        telemetry.count("exec.cache.imported", len(records))
        return {"archive": str(Path(archive_path)), "entries": len(records),
                "files": len(added), "skipped": skipped}

    def _import_target(self, member: tarfile.TarInfo) -> Path | None:
        if not member.isreg():
            return None
        parts = PurePosixPath(member.name).parts
        if len(parts) != 3 or parts[0] != _SHARDS:
            return None
        shard, name = parts[1], parts[2]
        ok = (shard and name and not shard.startswith(".")
              and not name.startswith(".") and "/" not in shard
              and os.sep not in shard and os.sep not in name
              and shard not in (os.curdir, os.pardir))
        if not ok:
            return None
        return self.root / _SHARDS / shard / name


# -- packs ---------------------------------------------------------------


def _atomic_write(path: Path, write) -> None:
    """``write(tmp)`` to a temp file beside ``path``, then rename it in."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _save_pack(path: Path, keys, traces) -> None:
    """Write ``traces`` (equal array shapes) as one uncompressed pack."""
    arrays = {
        "schema": np.asarray(PACK_SCHEMA),
        "keys": np.asarray(list(keys)),
    }
    for name in _PACK_STR_FIELDS:
        arrays[name] = np.asarray([getattr(t, name) for t in traces])
    for name in _PACK_SCALAR_FIELDS:
        arrays[name] = np.asarray(
            [getattr(t, name) for t in traces], dtype=np.float64
        )
    for name in _PACK_ARRAY_FIELDS:
        arrays[name] = np.stack(
            [np.asarray(getattr(t, name), dtype=np.float64) for t in traces]
        )
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _pack_keys(data) -> list:
    """The session keys of an open pack; a foreign schema raises."""
    schema = str(data["schema"][()])
    if schema != PACK_SCHEMA:
        raise ValueError(f"not a pack entry: schema {schema!r}")
    return [str(key) for key in data["keys"]]


def _load_pack(path: Path) -> tuple:
    """The pack at ``path`` as (row of each key, stacked columns).

    Every column is read whole here, so the zip layer checks each
    member's CRC-32 and a truncated or garbled pack raises before any of
    its sessions is served.
    """
    with np.load(path) as data:
        keys = _pack_keys(data)
        columns = {name: data[name] for name in _PACK_STR_FIELDS
                   + _PACK_SCALAR_FIELDS + _PACK_ARRAY_FIELDS}
    return {key: row for row, key in enumerate(keys)}, columns


def _pack_trace(columns: dict, row: int) -> Trace:
    """Session ``row`` of a loaded pack, as a ``Trace`` owning its arrays."""
    fields: dict = {}
    for name in _PACK_STR_FIELDS:
        fields[name] = str(columns[name][row])
    for name in _PACK_SCALAR_FIELDS:
        fields[name] = float(columns[name][row])
    for name in _PACK_ARRAY_FIELDS:
        fields[name] = columns[name][row].copy()
    return Trace(**fields)


def default_cache() -> TraceCache | None:
    """The env-gated default cache: enabled only when ``REPRO_CACHE`` is set."""
    if os.environ.get("REPRO_CACHE", "").strip().lower() in _TRUTHY:
        return TraceCache()
    return None
