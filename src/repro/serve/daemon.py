"""Background refresh daemon: a watched directory drives maintenance.

A :class:`MaintenanceDaemon` is an asyncio task that polls a directory
for dropped batch files (``.npz`` tables) and folds each into a stored
sample through :meth:`WarehouseService.refresh` — i.e. the one-pass
:meth:`StreamingCVOptSampler.resume` ingest with the existing
drift-escalation rule (a batch that pushes allocation drift past the
CV-degradation threshold triggers a full two-pass rebuild, because the
service hands maintenance the grown base table). Every applied batch
hot-swaps a new immutable version into the live service between
requests; concurrent readers keep the old version until the swap.
Under the ``mmap`` storage backend the swap itself is O(metadata):
the refreshed version is re-read as lazy memory-mapped columns, so no
row bytes move until the first query touches them and page-cache pages
for unchanged access patterns warm naturally.

File protocol
-------------
* ``<sample>__anything.npz`` refreshes sample ``<sample>``;
* any other ``*.npz`` refreshes the daemon's default ``sample`` (when
  configured), otherwise it is quarantined;
* producers should write elsewhere and ``os.replace`` into the watch
  directory; as a second line of defense a file is only picked up once
  its size and mtime are unchanged between two consecutive polls;
* applied batches move to ``<watch>/processed/``; a batch that fails is
  **retried with capped, jittered exponential backoff** (the file
  stays in the watch directory between attempts — transient faults
  like a mid-write read, a briefly held lock, or a sample whose build
  has not landed yet heal themselves) and only quarantined to
  ``<watch>/failed/`` (with a ``.error.txt`` note) once
  ``max_retries`` re-attempts are exhausted. Files the daemon cannot
  even route (no ``<sample>__`` prefix and no default sample) are
  quarantined immediately — retrying cannot fix a name. The directory
  is the queue, and it drains even when batches are bad.

The heavy lifting (``Table.load``, the refresh itself) runs in worker
threads via :func:`asyncio.to_thread`, so the daemon can share an event
loop with the HTTP front without stalling it.
"""

from __future__ import annotations

import asyncio
import pathlib
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..engine.table import Table
from ..obs import default_registry
from ..warehouse.service import WarehouseFront
from .service import AsyncWarehouseService

__all__ = ["MaintenanceDaemon", "BatchOutcome"]

_REFRESH_SECONDS = default_registry().histogram(
    "repro_daemon_refresh_seconds",
    "Wall-clock duration of one batch ingest (load + refresh + swap)",
)
_BATCHES = default_registry().counter(
    "repro_daemon_batches_total",
    "Batch files handled by the maintenance daemon, by outcome",
    ["outcome"],
)
_ESCALATIONS = default_registry().counter(
    "repro_daemon_escalations_total",
    "Refreshes whose drift escalated to a full rebuild",
)
_WINDOW_ROLLS = default_registry().counter(
    "repro_daemon_window_rolls_total",
    "Batches that rolled a windowed family forward",
)
_FROZEN_ROWS = default_registry().counter(
    "repro_daemon_frozen_rows_total",
    "Late rows dropped from closed-window samples by the daemon",
)
_PENDING_RETRIES = default_registry().gauge(
    "repro_daemon_pending_retries",
    "Batch files currently queued for a backoff retry",
)

_PROCESSED_DIR = "processed"
_FAILED_DIR = "failed"
_SAMPLE_SEPARATOR = "__"


@dataclass
class BatchOutcome:
    """What happened to one dropped batch file."""

    file: str
    sample: Optional[str]
    ok: bool
    # "incremental" / "rebuild", or "windowed" when the batch rolled a
    # windowed family forward (open-window refresh, fresh windows for
    # newer rows, late rows frozen out of closed windows).
    action: Optional[str] = None
    version: Optional[str] = None
    rows: int = 0
    #: Windowed refreshes only: window starts refreshed or opened, and
    #: late rows dropped from closed-window samples.
    windows_refreshed: Optional[List[int]] = None
    windows_opened: Optional[List[int]] = None
    frozen_rows: int = 0
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    #: 1-based attempt number this outcome describes.
    attempts: int = 1
    #: True when the file was moved to ``failed/`` (no more retries).
    quarantined: bool = False
    #: Seconds until the next retry (None when ok or quarantined).
    retry_in: Optional[float] = None


@dataclass
class _RetryState:
    """Backoff bookkeeping for one failing batch file."""

    attempts: int = 0
    next_due: float = 0.0  # monotonic clock


class MaintenanceDaemon:
    """Watch a directory; refresh stored samples from dropped batches.

    Parameters
    ----------
    service:
        The warehouse to refresh — a sync warehouse front
        (:class:`WarehouseService` or ``ShardedWarehouseService``) or
        an :class:`AsyncWarehouseService` (its wrapped sync service is
        used; refreshes are serialized by its maintenance mutex either
        way).
    watch_dir:
        Directory to poll; created (with its ``processed``/``failed``
        subdirectories) if missing.
    sample:
        Default sample for batch files without a ``<sample>__`` prefix.
    poll_interval:
        Seconds between directory scans while running.
    require_stable:
        Only ingest a file whose size/mtime matched on two consecutive
        scans (guards against half-written drops). Disable for
        single-shot catch-up runs where the producer is known quiescent.
    keep_outcomes:
        How many recent :class:`BatchOutcome` records to retain.
    max_retries:
        Re-attempts after a failed ingest before the file is
        quarantined (0 restores quarantine-on-first-failure). Files
        that cannot be routed to a sample are never retried.
    retry_initial_delay:
        Backoff before the first retry, in seconds; doubles per
        attempt.
    retry_max_delay:
        Cap on the backoff delay.
    retry_jitter:
        Relative jitter applied to each delay (0.25 = up to +25%), so a
        burst of bad files does not retry in lockstep.

    Single-loop object like the async service: drive it from one event
    loop via :meth:`start`/:meth:`stop` (or call :meth:`poll` directly).
    """

    def __init__(
        self,
        service,
        watch_dir,
        sample: Optional[str] = None,
        poll_interval: float = 1.0,
        require_stable: bool = True,
        keep_outcomes: int = 200,
        max_retries: int = 3,
        retry_initial_delay: float = 2.0,
        retry_max_delay: float = 60.0,
        retry_jitter: float = 0.25,
    ) -> None:
        if isinstance(service, AsyncWarehouseService):
            service = service.service
        if not isinstance(service, WarehouseFront):
            raise TypeError(
                "service must be a WarehouseService, "
                "ShardedWarehouseService or AsyncWarehouseService"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_initial_delay < 0 or retry_max_delay < 0:
            raise ValueError("retry delays must be >= 0")
        if retry_jitter < 0:
            raise ValueError("retry_jitter must be >= 0")
        self.service = service
        self.watch_dir = pathlib.Path(watch_dir)
        self.sample = sample
        self.poll_interval = float(poll_interval)
        self.require_stable = bool(require_stable)
        self.max_retries = int(max_retries)
        self.retry_initial_delay = float(retry_initial_delay)
        self.retry_max_delay = float(retry_max_delay)
        self.retry_jitter = float(retry_jitter)
        self.watch_dir.mkdir(parents=True, exist_ok=True)
        (self.watch_dir / _PROCESSED_DIR).mkdir(exist_ok=True)
        (self.watch_dir / _FAILED_DIR).mkdir(exist_ok=True)
        self._seen: Dict[str, Tuple[int, int]] = {}  # name -> (size, mtime)
        self._retries: Dict[str, _RetryState] = {}  # name -> backoff state
        self._jitter_rng = random.Random()
        self._task: Optional[asyncio.Task] = None
        self._stop = asyncio.Event()
        self.outcomes: Deque[BatchOutcome] = deque(maxlen=keep_outcomes)
        self.batches_applied = 0
        self.batches_failed = 0
        self.batches_retried = 0
        self.polls = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> asyncio.Task:
        """Spawn the polling loop on the running event loop."""
        if self._task is not None and not self._task.done():
            raise RuntimeError("daemon already running")
        self._stop.clear()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="warehouse-maintenance-daemon"
        )
        return self._task

    async def stop(self) -> None:
        """Finish the in-progress poll (if any) and stop. Idempotent."""
        self._stop.set()
        if self._task is not None:
            await self._task
            self._task = None

    async def _run(self) -> None:
        while not self._stop.is_set():
            await self.poll()
            try:
                await asyncio.wait_for(
                    self._stop.wait(), self.poll_interval
                )
            except asyncio.TimeoutError:
                pass

    # ------------------------------------------------------------------
    # polling
    # ------------------------------------------------------------------
    async def poll(self) -> List[BatchOutcome]:
        """Scan once and ingest every ready batch; returns outcomes.

        With ``require_stable`` a new file is recorded on the first
        scan and ingested on the next one whose size/mtime still match,
        so a dropped batch needs two polls to land. A file awaiting a
        retry is skipped until its backoff delay has elapsed (and is
        then re-attempted without a fresh stability round — it already
        sat through one).
        """
        self.polls += 1
        now = time.monotonic()
        snapshot: Dict[str, Tuple[int, int]] = {}
        ready = []
        for path in sorted(self.watch_dir.glob("*.npz")):
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue  # raced with another consumer
            fingerprint = (stat.st_size, stat.st_mtime_ns)
            snapshot[path.name] = fingerprint
            retry = self._retries.get(path.name)
            if retry is not None:
                if now >= retry.next_due:
                    ready.append(path)
                continue  # backing off; leave the file queued
            if (
                not self.require_stable
                or self._seen.get(path.name) == fingerprint
            ):
                ready.append(path)
        # A file that vanished (operator cleanup, another consumer)
        # takes its backoff state with it — a later drop under the same
        # name is a fresh batch, not attempt N+1, and must go through
        # the normal stability round.
        for name in list(self._retries):
            if name not in snapshot:
                del self._retries[name]
        outcomes = []
        for path in ready:
            outcome = await self._ingest(path)
            outcomes.append(outcome)
            self.outcomes.append(outcome)
            if outcome.ok or outcome.quarantined:
                snapshot.pop(path.name, None)
                self._retries.pop(path.name, None)
        self._seen = snapshot
        _PENDING_RETRIES.set(len(self._retries))
        return outcomes

    async def _ingest(self, path: pathlib.Path) -> BatchOutcome:
        sample = self._route(path)
        started = time.perf_counter()
        attempts = self._retries.get(path.name, _RetryState()).attempts + 1
        if sample is None:
            # Unroutable: no amount of retrying fixes a file name.
            return self._quarantine(
                path,
                sample,
                "no '<sample>__' prefix and the daemon has no default "
                "sample",
                started,
                attempts,
            )
        try:
            batch = await asyncio.to_thread(Table.load, path)
            report = await asyncio.to_thread(
                self.service.refresh, sample, batch
            )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            if attempts > self.max_retries:
                return self._quarantine(
                    path, sample, error, started, attempts
                )
            return self._schedule_retry(
                path, sample, error, started, attempts
            )
        path.replace(self.watch_dir / _PROCESSED_DIR / path.name)
        self.batches_applied += 1
        elapsed = time.perf_counter() - started
        _BATCHES.inc(outcome="applied")
        _REFRESH_SECONDS.observe(elapsed)
        if report.action == "rebuild":
            _ESCALATIONS.inc()
        if report.action == "windowed":
            _WINDOW_ROLLS.inc()
            if report.frozen_rows:
                _FROZEN_ROWS.inc(report.frozen_rows)
        return BatchOutcome(
            file=path.name,
            sample=sample,
            ok=True,
            action=report.action,
            version=report.version,
            rows=report.rows_ingested,
            windows_refreshed=getattr(report, "refreshed", None),
            windows_opened=getattr(report, "opened", None),
            frozen_rows=getattr(report, "frozen_rows", 0),
            elapsed_seconds=elapsed,
            attempts=attempts,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Counters + the most recent outcome, JSON-ready."""
        last = self.outcomes[-1] if self.outcomes else None
        now = time.monotonic()
        return {
            "watch_dir": str(self.watch_dir),
            "polls": self.polls,
            "batches_applied": self.batches_applied,
            "batches_failed": self.batches_failed,
            "batches_retried": self.batches_retried,
            "pending_retries": {
                name: {
                    "attempts": state.attempts,
                    "due_in_seconds": max(0.0, state.next_due - now),
                }
                for name, state in self._retries.items()
            },
            "running": self._task is not None and not self._task.done(),
            "last_outcome": vars(last) if last else None,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _route(self, path: pathlib.Path) -> Optional[str]:
        stem = path.name[: -len(".npz")]
        if _SAMPLE_SEPARATOR in stem:
            prefix = stem.split(_SAMPLE_SEPARATOR, 1)[0]
            if prefix:
                return prefix
        return self.sample

    def _backoff_delay(self, attempts: int) -> float:
        """Capped exponential backoff with relative jitter."""
        delay = min(
            self.retry_initial_delay * (2.0 ** max(attempts - 1, 0)),
            self.retry_max_delay,
        )
        if self.retry_jitter:
            delay *= 1.0 + self.retry_jitter * self._jitter_rng.random()
        return delay

    def _schedule_retry(
        self,
        path: pathlib.Path,
        sample: Optional[str],
        error: str,
        started: float,
        attempts: int,
    ) -> BatchOutcome:
        delay = self._backoff_delay(attempts)
        self._retries[path.name] = _RetryState(
            attempts=attempts, next_due=time.monotonic() + delay
        )
        self.batches_retried += 1
        _BATCHES.inc(outcome="retried")
        _PENDING_RETRIES.set(len(self._retries))
        return BatchOutcome(
            file=path.name,
            sample=sample,
            ok=False,
            error=error,
            elapsed_seconds=time.perf_counter() - started,
            attempts=attempts,
            quarantined=False,
            retry_in=delay,
        )

    def _quarantine(
        self,
        path: pathlib.Path,
        sample: Optional[str],
        error: str,
        started: float,
        attempts: int = 1,
    ) -> BatchOutcome:
        failed = self.watch_dir / _FAILED_DIR / path.name
        try:
            path.replace(failed)
            failed.with_suffix(".error.txt").write_text(
                error + f" (after {attempts} attempt(s))\n"
            )
        except OSError:
            pass  # the outcome record still carries the error
        self._retries.pop(path.name, None)
        self.batches_failed += 1
        _BATCHES.inc(outcome="quarantined")
        _PENDING_RETRIES.set(len(self._retries))
        return BatchOutcome(
            file=path.name,
            sample=sample,
            ok=False,
            error=error,
            elapsed_seconds=time.perf_counter() - started,
            attempts=attempts,
            quarantined=True,
        )
