"""Persistent, versioned sample store over pluggable backends.

A :class:`SampleStore` keeps materialized
:class:`~repro.core.sample.StratifiedSample` objects on disk, each under
its own name with an append-only sequence of immutable versions::

    root/
      manifest.log       # append-only commit log (fsync'd JSON lines)
      <name>/
        .lock            # advisory writer lock (absent when idle)
        CURRENT          # one line: the live version id, e.g. "v000003"
        v000001/
          rows.npz       # rows blob — format chosen by the backend
          meta.json      # allocation, statistics, lineage, storage block
        v000002/
          ...

The *physical* rows format is delegated to a
:class:`~repro.warehouse.backends.StorageBackend` (npz by default;
parquet/arrow and in-memory backends ship too). Each version's
``meta.json`` records the format that wrote it, so stores with mixed
formats stay fully readable whatever backend a reader configured.

Writes are safe across threads *and processes*:

* a new version is assembled in a hidden staging directory and renamed
  into place with ``os.replace`` — no reader ever lists a half-written
  version directory under a version id;
* the version is *committed* by a single fsync'd append to
  ``manifest.log``; :meth:`versions`/:meth:`get` read the manifest, so
  a crash between the rename and the append leaves an orphan directory
  that is simply invisible (and adoptable via
  :meth:`rebuild_manifest`);
* the ``CURRENT`` pointer is swapped with ``os.replace`` after the
  commit, so it always names a committed version;
* concurrent writers — other threads, the HTTP front's watch mode, a
  standalone ``warehouse daemon`` — are serialized per sample by an
  advisory lock file with stale-lock breaking
  (:class:`~repro.warehouse.coordination.FileLock`).

Readers never take locks. :meth:`get` without an explicit version also
*skips* damaged version directories (truncated rows, missing meta — the
debris of a crashed pre-manifest writer) and falls back to the newest
readable version instead of raising.

Besides the sample itself, a version persists the allocation's pass-1
per-stratum statistics (when the sampler kept them) so the maintenance
pipeline can resume the streaming CVOPT exactly where the last build
left off, plus a free-form ``lineage`` dict tracking refresh history
and staleness. See ``docs/STORAGE.md`` for the full on-disk contract.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import threading
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.sample import Allocation, StratifiedSample
from ..engine.statistics import (
    ColumnStats,
    StrataStatistics,
    summarize_column_stats,
)
from ..engine.table import Table
from .backends import (
    StorageBackend,
    backend_for_format,
    infer_storage,
    resolve_backend,
)
from .coordination import FileLock, ManifestLog, ManifestRecord

__all__ = [
    "SampleStore",
    "StoredSample",
    "StoreEntryStats",
    "derive_columns_block",
]

# Meta format history:
#   1 — pre-backend layout (no storage block)
#   2 — storage block (pluggable backends)
#   3 — per-column pipeline: a ``columns`` block ({tracked, primary})
#       names the value columns whose moment blocks the version keeps
#       exact; formats 1/2 still load (tracked columns are derived from
#       the lineage / statistics keys).
#   4 — time windows: an optional ``window`` block
#       ``{column, width, start, end}`` tags a version as one tumbling
#       window ``[start, end)`` of its family, partitioned on the
#       (integer) timestamp ``column``. Formats 1-3 still load with
#       ``window = None`` (an un-windowed, all-of-history sample).
#   5 — centred moments: ``statistics`` column blocks are ``{count,
#       total, m2}``. Formats 1-4 stored raw ``total_sq`` and convert
#       on read (:func:`_decode_column_stats`).
_FORMAT_VERSION = 5
_CURRENT_FILE = "CURRENT"
_META_FILE = "meta.json"
_LOCK_FILE = ".lock"
_MANIFEST_FILE = "manifest.log"
_MANIFEST_LOCK = ".manifest.lock"

#: What a damaged version directory can raise while loading: truncated
#: or missing blobs, unparsable meta, unknown formats, and a memory /
#: parquet blob this process cannot materialize.
_CORRUPT_ERRORS = (
    OSError,
    EOFError,
    ValueError,  # includes json.JSONDecodeError and bad DType tags
    KeyError,
    RuntimeError,  # parquet version without pyarrow installed
    zipfile.BadZipFile,
    zlib.error,  # npz with intact zip directory but damaged members
)


@dataclass
class StoredSample:
    """One loaded version: the sample plus its warehouse metadata."""

    name: str
    version: str
    sample: StratifiedSample
    table_name: Optional[str] = None
    lineage: Dict = field(default_factory=dict)
    extra: Dict = field(default_factory=dict)
    path: Optional[pathlib.Path] = None
    storage: Dict = field(default_factory=dict)
    #: The version's ``columns`` block: ``{"tracked": [...], "primary":
    #: ...}`` — derived for pre-format-3 metas.
    columns: Dict = field(default_factory=dict)
    #: Format-4 ``window`` block ``{column, width, start, end}`` when
    #: this version is one tumbling window of a family; ``None`` for
    #: all-of-history samples and every pre-format-4 meta.
    window: Optional[Dict] = None

    @property
    def statistics(self) -> Optional[StrataStatistics]:
        return self.sample.allocation.stats

    @property
    def tracked_columns(self) -> list:
        """Value columns whose per-stratum moments this version keeps
        exact (primary first)."""
        return list(self.columns.get("tracked") or [])

    @property
    def primary_column(self) -> Optional[str]:
        """The column driving incremental re-balancing."""
        return self.columns.get("primary")


@dataclass
class StoreEntryStats:
    """Size/version accounting for one stored sample."""

    name: str
    current_version: Optional[str]
    num_versions: int
    rows: int
    strata: int
    bytes_on_disk: int
    method: str
    by: tuple
    lineage: Dict = field(default_factory=dict)
    backend: str = "npz"
    #: ``{"tracked": [...], "primary": ..., "stats": {col: summary}}``
    #: where each summary is
    #: :func:`~repro.engine.statistics.summarize_column_stats` output.
    columns: Dict = field(default_factory=dict)


class SampleStore:
    """Directory-backed store of named, versioned stratified samples.

    Parameters
    ----------
    root:
        Store directory (created if missing).
    backend:
        Physical rows format for *writes*: a backend name (``"npz"``,
        ``"parquet"``, ``"memory"``), a
        :class:`~repro.warehouse.backends.StorageBackend` instance, or
        None for the npz default. Reads always dispatch on each
        version's recorded format, independent of this choice.
    lock_timeout:
        Seconds a writer waits for a sample's advisory lock before
        raising :class:`~repro.warehouse.coordination.LockTimeout`.
    stale_lock_timeout:
        Age beyond which a held lock is presumed abandoned and broken
        (dead same-host holders are broken immediately).
    """

    def __init__(
        self,
        root,
        backend=None,
        lock_timeout: float = 10.0,
        stale_lock_timeout: float = 30.0,
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.backend: StorageBackend = resolve_backend(backend)
        self.lock_timeout = float(lock_timeout)
        self.stale_lock_timeout = float(stale_lock_timeout)
        # Per-sample in-process mutexes: threads of one process contend
        # per name (cheap), the FileLock handles other processes — a
        # thread blocked on another process's lock must not stall
        # writes to unrelated samples.
        self._write_mutexes: Dict[str, threading.Lock] = {}
        self._write_mutexes_guard = threading.Lock()
        self.manifest = ManifestLog(self.root / _MANIFEST_FILE)
        self._state_lock = threading.Lock()
        self._versions_view: Dict[str, Dict[str, Dict]] = {}
        self._offset = 0
        self._records = 0
        self._skipped = 0
        self._readers: Dict[str, StorageBackend] = {}
        self._ensure_manifest()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def put(
        self,
        name: str,
        sample: StratifiedSample,
        table_name: Optional[str] = None,
        lineage: Optional[Dict] = None,
        extra: Optional[Dict] = None,
        window: Optional[Dict] = None,
    ) -> str:
        """Write ``sample`` as the next version of ``name``; returns the
        new version id. The version becomes visible atomically (to this
        and every other process) when its manifest record commits.
        ``window`` tags the version as one tumbling window
        (``{column, width, start, end}``)."""
        _validate_name(name)
        with self._write_mutex(name):
            sample_dir = self.root / name
            sample_dir.mkdir(parents=True, exist_ok=True)
            with self._sample_lock(sample_dir):
                version = self._next_version(name, sample_dir)
                staging = sample_dir / f".staging-{version}"
                if staging.exists():
                    shutil.rmtree(staging)
                staging.mkdir()
                try:
                    storage = self.backend.put_rows(staging, sample.table)
                    meta = self._encode_meta(
                        name, version, sample, table_name, lineage, extra,
                        storage, window,
                    )
                    (staging / _META_FILE).write_text(
                        json.dumps(meta, indent=2)
                    )
                    os.replace(staging, sample_dir / version)
                except BaseException:
                    self._discard_staging(staging)
                    raise
                rename_hook = getattr(self.backend, "rename", None)
                if rename_hook is not None:
                    rename_hook(staging, sample_dir / version)
                self.manifest.append(
                    ManifestRecord(
                        op="put", name=name, version=version,
                        storage=storage,
                    )
                )
                _swap_current(sample_dir, version)
        return version

    def delete(self, name: str) -> None:
        """Remove a sample and all its versions."""
        sample_dir = self._sample_dir(name)
        with self._write_mutex(name), self._sample_lock(sample_dir):
            for version in self._merged_versions(name, sample_dir):
                self._release_blob(name, sample_dir / version)
            shutil.rmtree(sample_dir)
            self.manifest.append(ManifestRecord(op="delete", name=name))

    def prune(self, name: str, keep: int = 2) -> List[str]:
        """Drop all but the newest ``keep`` versions; returns the ids
        removed. The current version is always kept."""
        if keep < 1:
            raise ValueError("keep must be >= 1")
        sample_dir = self._sample_dir(name)
        with self._write_mutex(name), self._sample_lock(sample_dir):
            versions = self._merged_versions(name, sample_dir)
            current = _read_current(sample_dir)
            doomed = [v for v in versions[:-keep] if v != current]
            for version in doomed:
                self._release_blob(name, sample_dir / version)
                shutil.rmtree(sample_dir / version, ignore_errors=True)
            if doomed:
                self.manifest.append(
                    ManifestRecord(op="prune", name=name, versions=doomed)
                )
        return doomed

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Sorted names of every sample with at least one committed
        version (reads the manifest, validated against the directory).

        Mirrors the :meth:`versions` recovery view: a directory the
        manifest knows nothing about (hand-copied sample, pre-manifest
        store whose rebuild was skipped) is still listed when it holds
        version directories.
        """
        self._refresh_state()
        with self._state_lock:
            known = {
                name: set(versions)
                for name, versions in self._versions_view.items()
                if versions
            }
        out = {
            name
            for name, versions in known.items()
            if any((self.root / name / v).is_dir() for v in versions)
        }
        for p in self.root.iterdir():
            if (
                p.is_dir()
                and not p.name.startswith(".")
                and p.name not in known
                and _list_versions(p)
            ):
                out.add(p.name)
        return sorted(out)

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` exists with at least one version (never
        raises, even for syntactically invalid names)."""
        try:
            sample_dir = self._sample_dir(name)
        except (KeyError, ValueError):
            return False
        return bool(self._merged_versions(name, sample_dir))

    def versions(self, name: str) -> List[str]:
        """Committed version ids of ``name``, oldest first (manifest
        view); raises :class:`KeyError` for unknown samples."""
        sample_dir = self._sample_dir(name)
        self._refresh_state()
        with self._state_lock:
            committed = sorted(self._versions_view.get(name, {}))
        listed = [v for v in committed if (sample_dir / v).is_dir()]
        if listed:
            return listed
        # Recovery view: manifest knows nothing (pre-manifest store
        # whose rebuild was skipped, or a log reset) — trust the disk.
        return _list_versions(sample_dir)

    def current_version(self, name: str) -> Optional[str]:
        """The live version id of ``name`` (None when the pointer is
        missing and no versions exist); raises :class:`KeyError` for
        unknown samples."""
        return _read_current(self._sample_dir(name))

    def get(
        self,
        name: str,
        version: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> StoredSample:
        """Load ``name`` at ``version`` (default: the current one).

        ``columns`` is a projection hint forwarded to the storage
        backend: only the named columns need to come back on the sample
        table (unknown names are ignored; ``None`` means all). Callers
        that pass it own the consequences — the returned table simply
        lacks the other columns.

        Without an explicit ``version``, damaged version directories —
        truncated rows from a crashed writer, missing meta, a blob this
        process cannot materialize — are *skipped* and the newest
        readable version is returned instead; :class:`KeyError` is
        raised only when no version can be loaded at all. An explicit
        ``version`` is loaded exactly, propagating any decode error.
        """
        sample_dir = self._sample_dir(name)
        if version is not None:
            if not (sample_dir / version).is_dir():
                raise KeyError(
                    f"sample {name!r} has no version {version!r}; "
                    "available: "
                    + ", ".join(self._merged_versions(name, sample_dir))
                )
            return self._load_version(name, sample_dir, version, columns)
        candidates = self._read_candidates(name, sample_dir)
        if not candidates:
            raise KeyError(f"sample {name!r} has no current version")
        failures = []
        for candidate in candidates:
            try:
                return self._load_version(name, sample_dir, candidate, columns)
            except _CORRUPT_ERRORS as exc:
                failures.append(f"{candidate}: {type(exc).__name__}: {exc}")
        raise KeyError(
            f"sample {name!r} has no readable version; "
            "skipped: " + "; ".join(failures)
        )

    def stats(self) -> List[StoreEntryStats]:
        """Per-sample accounting over the whole store.

        Safe against concurrent writers: a sample pruned or deleted
        mid-walk is skipped rather than raising (the snapshot simply
        reflects one side of the race).
        """
        out = []
        for name in self.names():
            try:
                entry = self._entry_stats(name)
            except FileNotFoundError:
                continue  # pruned/deleted underneath us
            out.append(entry)
        return out

    def manifest_position(self) -> Dict:
        """Where the manifest stands, for ``/stats`` and monitoring:
        byte offset consumed, committed records seen, unparsable lines
        skipped (non-zero means the log needs :meth:`rebuild_manifest`)."""
        self._refresh_state()
        with self._state_lock:
            return {
                "path": str(self.manifest.path),
                "offset": self._offset,
                "records": self._records,
                "skipped": self._skipped,
            }

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def rebuild_manifest(self) -> List[Dict]:
        """Adopt every complete version directory the manifest missed.

        The recovery path for pre-manifest stores, hand-copied samples,
        and crashes between a version rename and its commit append:
        scans the directory tree and appends a ``put`` record (flagged
        ``recovered``) for each version directory that has a meta file
        and a rows blob but no manifest record. Serialized across
        processes by a store-wide lock. Returns the adopted
        ``{"name", "version"}`` pairs.
        """
        adopted: List[Dict] = []
        with FileLock(
            self.root / _MANIFEST_LOCK,
            timeout=self.lock_timeout,
            stale_timeout=self.stale_lock_timeout,
        ):
            self._refresh_state()
            with self._state_lock:
                known = {
                    name: set(versions)
                    for name, versions in self._versions_view.items()
                }
            for sample_dir in sorted(self.root.iterdir()):
                if not sample_dir.is_dir() or sample_dir.name.startswith("."):
                    continue
                name = sample_dir.name
                for version in _list_versions(sample_dir):
                    if version in known.get(name, set()):
                        continue
                    storage = _storage_block_of(sample_dir / version)
                    if storage is None:
                        continue  # incomplete: not adoptable
                    self.manifest.append(
                        ManifestRecord(
                            op="put", name=name, version=version,
                            storage=storage, recovered=True,
                        )
                    )
                    adopted.append({"name": name, "version": version})
        return adopted

    # ------------------------------------------------------------------
    # manifest state
    # ------------------------------------------------------------------
    def _ensure_manifest(self) -> None:
        """Migration: a pre-manifest store (version directories but no
        log) gets its manifest rebuilt from the directory tree once, at
        open time."""
        if self.manifest.exists():
            return
        has_versions = any(
            p.is_dir()
            and not p.name.startswith(".")
            and _list_versions(p)
            for p in self.root.iterdir()
        )
        if has_versions:
            self.rebuild_manifest()

    def _refresh_state(self) -> None:
        """Fold newly committed manifest records into the in-memory
        view (cheap no-op when the log has not grown)."""
        with self._state_lock:
            size = self.manifest.size()
            if size < self._offset:
                # Log shrank underneath us (operator reset): replay all.
                self._versions_view.clear()
                self._offset = self._records = self._skipped = 0
            elif size == self._offset:
                return
            records, offset, skipped = self.manifest.replay(self._offset)
            self._offset = offset
            self._records += len(records)
            self._skipped += skipped
            for record in records:
                if record.op == "put" and record.version:
                    self._versions_view.setdefault(record.name, {})[
                        record.version
                    ] = record.storage or {}
                elif record.op == "prune":
                    have = self._versions_view.get(record.name, {})
                    for version in record.versions or []:
                        have.pop(version, None)
                elif record.op == "delete":
                    self._versions_view.pop(record.name, None)

    def _merged_versions(
        self, name: str, sample_dir: pathlib.Path
    ) -> List[str]:
        """Committed ∪ on-disk version ids, oldest first — the writer's
        view (version-id allocation, prune, delete must account for
        uncommitted orphans too)."""
        self._refresh_state()
        with self._state_lock:
            committed = set(self._versions_view.get(name, {}))
        return sorted(committed | set(_list_versions(sample_dir)))

    def _read_candidates(
        self, name: str, sample_dir: pathlib.Path
    ) -> List[str]:
        """Versions to try for a default :meth:`get`: the CURRENT
        pointer first, then every other committed version newest
        first."""
        versions = self.versions(name)
        current = _read_current(sample_dir)
        ordered = []
        if current and (sample_dir / current).is_dir():
            ordered.append(current)
        ordered.extend(
            v for v in reversed(versions) if v not in ordered
        )
        return ordered

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _load_version(
        self,
        name: str,
        sample_dir: pathlib.Path,
        version: str,
        columns: Optional[Sequence[str]] = None,
    ) -> StoredSample:
        version_dir = sample_dir / version
        meta = json.loads((version_dir / _META_FILE).read_text())
        storage = meta.get("storage") or {
            "backend": "npz", "format": "npz", "rows_file": "rows.npz",
        }
        reader = self._reader_for(storage)
        if columns is None:
            # Two-argument form keeps third-party backends written
            # against the pre-projection protocol working.
            table = reader.get_rows(version_dir, storage)
        else:
            table = reader.get_rows(version_dir, storage, columns=columns)
        sample = self._decode_sample(table, meta)
        return StoredSample(
            name=name,
            version=version,
            sample=sample,
            table_name=meta.get("table_name"),
            lineage=meta.get("lineage") or {},
            extra=meta.get("extra") or {},
            path=version_dir,
            storage=storage,
            columns=_columns_block_of(meta),
            window=meta.get("window"),
        )

    def _reader_for(self, storage: Dict) -> StorageBackend:
        fmt = storage.get("format") or "npz"
        if getattr(self.backend, "name", None) == storage.get("backend"):
            # Prefer the configured instance (shares in-process blobs
            # for the memory backend).
            if fmt != "npz" or self.backend.name == "npz":
                return self.backend
        reader = self._readers.get(fmt)
        if reader is None:
            reader = backend_for_format(fmt)
            self._readers[fmt] = reader
        return reader

    def _entry_stats(self, name: str) -> StoreEntryStats:
        sample_dir = self.root / name
        versions = self.versions(name)
        current = _read_current(sample_dir)
        rows = strata = 0
        method = ""
        by: tuple = ()
        lineage: Dict = {}
        backend = "npz"
        columns: Dict = {}
        if current is not None and (sample_dir / current).is_dir():
            try:
                meta = json.loads(
                    (sample_dir / current / _META_FILE).read_text()
                )
            except (OSError, ValueError):
                meta = {}  # torn current version: report sizes only
            rows = int(meta.get("sample_rows", 0))
            allocation = meta.get("allocation") or {}
            strata = len(allocation.get("keys", ()))
            method = meta.get("method", "")
            by = tuple(allocation.get("by", ()))
            lineage = meta.get("lineage") or {}
            backend = (meta.get("storage") or {}).get("backend", "npz")
            columns = _columns_block_of(meta)
            columns["stats"] = _column_stat_summaries(meta)
        nbytes = 0
        for f in sample_dir.rglob("*"):
            try:
                if f.is_file():
                    nbytes += f.stat().st_size
            except FileNotFoundError:
                continue  # file pruned between listing and stat
        return StoreEntryStats(
            name=name,
            current_version=current,
            num_versions=len(versions),
            rows=rows,
            strata=strata,
            bytes_on_disk=nbytes,
            method=method,
            by=by,
            lineage=lineage,
            backend=backend,
            columns=columns,
        )

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def _encode_meta(
        self, name, version, sample, table_name, lineage, extra, storage,
        window=None,
    ) -> Dict:
        allocation = sample.allocation
        meta = {
            "format": _FORMAT_VERSION,
            "name": name,
            "version": version,
            "method": sample.method,
            "budget": int(sample.budget),
            "source_rows": int(sample.source_rows),
            "sample_rows": int(sample.num_rows),
            "table_name": table_name,
            "storage": dict(storage),
            "allocation": {
                "by": list(allocation.by),
                "keys": [_encode_key(k) for k in allocation.keys],
                "populations": [int(x) for x in allocation.populations],
                "sizes": [int(x) for x in allocation.sizes],
            },
            "lineage": dict(lineage or {}),
            "extra": dict(extra or {}),
            "columns": derive_columns_block(
                dict(lineage or {}), allocation.stats
            ),
        }
        if window is not None:
            meta["window"] = {
                "column": window["column"],
                "width": int(window["width"]),
                "start": int(window["start"]),
                "end": int(window["end"]),
            }
        if allocation.scores is not None:
            meta["allocation"]["scores"] = [
                float(x) for x in allocation.scores
            ]
        if allocation.stats is not None:
            meta["statistics"] = {
                column: {
                    name: [float(x) for x in getattr(cs, name)]
                    for name in ("count", "total", "m2")
                }
                for column, cs in allocation.stats.columns.items()
            }
        return meta

    def _decode_sample(self, table: Table, meta: Dict) -> StratifiedSample:
        alloc_meta = meta["allocation"]
        keys = [_decode_key(k) for k in alloc_meta["keys"]]
        populations = np.asarray(alloc_meta["populations"], dtype=np.int64)
        stats = None
        if meta.get("statistics"):
            stats = StrataStatistics(
                by=tuple(alloc_meta["by"]),
                keys=keys,
                sizes=populations,
            )
            for column, cs in meta["statistics"].items():
                stats.columns[column] = _decode_column_stats(cs)
        scores = alloc_meta.get("scores")
        allocation = Allocation(
            by=tuple(alloc_meta["by"]),
            keys=keys,
            populations=populations,
            sizes=np.asarray(alloc_meta["sizes"], dtype=np.int64),
            scores=(
                np.asarray(scores, dtype=np.float64)
                if scores is not None
                else None
            ),
            stats=stats,
        )
        return StratifiedSample(
            table=table,
            allocation=allocation,
            method=meta["method"],
            source_rows=int(meta["source_rows"]),
            budget=int(meta["budget"]),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _write_mutex(self, name: str) -> threading.Lock:
        with self._write_mutexes_guard:
            return self._write_mutexes.setdefault(name, threading.Lock())

    def _sample_lock(self, sample_dir: pathlib.Path) -> FileLock:
        return FileLock(
            sample_dir / _LOCK_FILE,
            timeout=self.lock_timeout,
            stale_timeout=self.stale_lock_timeout,
        )

    def _next_version(self, name: str, sample_dir: pathlib.Path) -> str:
        versions = self._merged_versions(name, sample_dir)
        last = int(versions[-1][1:]) if versions else 0
        return f"v{last + 1:06d}"

    def _discard_staging(self, staging: pathlib.Path) -> None:
        delete_hook = getattr(self.backend, "delete", None)
        if delete_hook is not None:
            try:
                delete_hook(staging)
            except OSError:
                pass
        shutil.rmtree(staging, ignore_errors=True)

    def _release_blob(self, name: str, version_dir: pathlib.Path) -> None:
        """Let the owning backend drop per-version resources before the
        directory goes away (memory backend: evict the resident blob)."""
        storage = _storage_block_of(version_dir)
        if storage is None:
            return
        try:
            self._reader_for(storage).delete(version_dir)
        except (OSError, ValueError):
            pass  # accounting cleanup must never block a prune/delete

    def _sample_dir(self, name: str) -> pathlib.Path:
        _validate_name(name)
        path = self.root / name
        if not path.is_dir():
            raise KeyError(
                f"no stored sample {name!r}; "
                f"available: {', '.join(self.names()) or '-'}"
            )
        return path


# ----------------------------------------------------------------------
# per-column metadata helpers
# ----------------------------------------------------------------------
def derive_columns_block(
    lineage: Dict, stats: Optional[StrataStatistics] = None
) -> Dict:
    """The canonical lineage-to-tracked-columns derivation.

    Tracked columns come from the lineage (``value_columns``, or the
    legacy single ``value_column``), falling back to the persisted
    statistics keys for metas that predate column lineage. The primary
    column defaults to the first tracked one and is moved to the front
    of ``tracked``. This is the single implementation of the fallback
    chain — the store's meta ``columns`` block and the maintainer's
    tracked set both come from here, so they cannot disagree.
    """
    tracked = list(dict.fromkeys(lineage.get("value_columns") or []))
    if not tracked:
        single = lineage.get("value_column")
        if single:
            tracked = [single]
    if not tracked and stats is not None:
        tracked = list(stats.columns)
    primary = lineage.get("primary_column")
    if not primary or primary not in tracked:
        primary = tracked[0] if tracked else None
    if primary and tracked[0] != primary:
        tracked.remove(primary)
        tracked.insert(0, primary)
    return {"tracked": tracked, "primary": primary}


def _columns_block_of(meta: Dict) -> Dict:
    """A meta's ``columns`` block, derived for pre-format-3 metas."""
    block = meta.get("columns")
    if isinstance(block, dict) and block.get("tracked"):
        return {
            "tracked": list(block.get("tracked") or []),
            "primary": block.get("primary"),
        }
    tracked = list((meta.get("statistics") or {}).keys())
    lineage = dict(meta.get("lineage") or {})
    derived = derive_columns_block(lineage)
    if not derived["tracked"]:
        derived = {
            "tracked": tracked,
            "primary": tracked[0] if tracked else None,
        }
    return derived


def _decode_column_stats(cs: Dict) -> ColumnStats:
    """One persisted column block: format 5's ``{count, total, m2}``, or
    formats 1-4's raw ``{count, total, total_sq}`` (converted on read)."""
    names = ("count", "total", "m2" if "m2" in cs else "total_sq")
    return ColumnStats(**{f: np.asarray(cs[f], np.float64) for f in names})


def _column_stat_summaries(meta: Dict) -> Dict:
    """Per-column moment summaries from a meta's statistics block."""
    out: Dict = {}
    for column, cs in (meta.get("statistics") or {}).items():
        try:
            stats = _decode_column_stats(cs)
        except (KeyError, TypeError, ValueError):
            continue  # torn statistics block: skip the column
        out[column] = summarize_column_stats(stats)
    return out


# ----------------------------------------------------------------------
# directory/version helpers
# ----------------------------------------------------------------------
def _validate_name(name: str) -> None:
    if (
        not name
        or name != name.strip()
        or any(sep in name for sep in ("/", "\\", os.sep))
        or name.startswith(".")
    ):
        raise ValueError(f"invalid sample name {name!r}")


def _list_versions(sample_dir: pathlib.Path) -> List[str]:
    if not sample_dir.is_dir():
        return []
    return sorted(
        p.name
        for p in sample_dir.iterdir()
        if p.is_dir() and p.name.startswith("v") and p.name[1:].isdigit()
    )


def _storage_block_of(version_dir: pathlib.Path) -> Optional[Dict]:
    """The ``storage`` block of a version directory, inferred for
    legacy versions; None when the directory is incomplete (meta
    missing or unparsable, or no rows blob) — such a version must not
    be adopted into the manifest, since it can never be loaded."""
    try:
        meta = json.loads((version_dir / _META_FILE).read_text())
    except (OSError, ValueError):
        return None
    storage = meta.get("storage")
    if storage is None:
        return infer_storage(version_dir)  # legacy meta: probe backends
    if not (version_dir / storage.get("rows_file", "rows.npz")).is_file():
        return None
    column_files = storage.get("column_files")
    if isinstance(column_files, dict):
        # Multi-file formats (mmap): every recorded column file must be
        # present, or the version is torn and must not be adopted.
        for fname in column_files.values():
            if not (version_dir / fname).is_file():
                return None
    return storage


def _read_current(sample_dir: pathlib.Path) -> Optional[str]:
    pointer = sample_dir / _CURRENT_FILE
    try:
        version = pointer.read_text().strip()
    except FileNotFoundError:
        versions = _list_versions(sample_dir)
        return versions[-1] if versions else None
    return version or None


def _swap_current(sample_dir: pathlib.Path, version: str) -> None:
    tmp = sample_dir / f".{_CURRENT_FILE}.tmp"
    tmp.write_text(version + "\n")
    os.replace(tmp, sample_dir / _CURRENT_FILE)


# ----------------------------------------------------------------------
# key-tuple (de)serialization — JSON with type tags so group keys
# round-trip exactly (int vs float vs str vs bool vs null)
# ----------------------------------------------------------------------
def _encode_key(key) -> list:
    return [_encode_value(v) for v in key]


def _encode_value(value) -> list:
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ["n", None]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", value]
    return ["s", str(value)]


def _decode_value(tagged) -> object:
    tag, value = tagged
    if tag == "n":
        return None
    if tag == "b":
        return bool(value)
    if tag == "i":
        return int(value)
    if tag == "f":
        return float(value)
    if tag == "s":
        return str(value)
    raise ValueError(f"unknown key tag {tag!r}")


def _decode_key(tagged_key) -> tuple:
    return tuple(_decode_value(t) for t in tagged_key)
