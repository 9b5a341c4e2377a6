"""Concurrent serving fronts for the sample warehouse.

:class:`WarehouseFront` is the read path both fronts share — the plain
:class:`WarehouseService` here and the scatter-gather
:class:`~repro.warehouse.sharded_service.ShardedWarehouseService`:

* **reads** (:meth:`~WarehouseFront.query`,
  :meth:`~WarehouseFront.query_with_contract`) run concurrently under a
  read-write lock's shared side, route through an
  :class:`~repro.aqp.session.AQPSession` (sample routing + HT-weighted
  plans + compiled-plan cache), and are memoized in an LRU *answer*
  cache keyed by the store epoch — so a dashboard re-issuing the same
  SQL is a dictionary hit. A front differs only in how it produces an
  answer (:meth:`~WarehouseFront._answer`) and a sliding-window sample
  (:meth:`~WarehouseFront._materialize_slide`);
* **writes** (:meth:`WarehouseService.build`,
  :meth:`~WarehouseService.refresh`,
  :meth:`~WarehouseService.register_table`) are each front's own. Here
  they do their heavy lifting — two-pass builds, streaming ingests,
  store I/O — *outside* the write lock, then take it only for the
  in-memory swap: replace the routed sample, append the batch to the
  base table (so exact fallback stays consistent), bump the epoch, drop
  stale cached answers. Readers therefore block only for the swap,
  never for the sampling work; concurrent writers are serialized by a
  separate maintenance mutex.

Thread-safety note: the session's internal plan cache is shared by
concurrent readers; its mutations are benign under the GIL (worst case
a plan is compiled twice), while every structural change to tables or
samples happens under the exclusive side of the lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Sequence

from dataclasses import dataclass, field

from ..aqp.session import AQPResult, AQPSession, RouteDecision
from ..engine.groupcache import default_group_code_cache
from ..engine.sql.parser import parse_query
from ..engine.sql.planner import extract_time_bounds
from ..obs import default_registry, default_tracer
from ..engine.table import Table
from ..workload.model import Workload
from .advisor import AdvisorPlan, advise
from .contracts import (
    AccuracyContract,
    AccuracyContractViolation,
    ContractedResult,
    build_contract,
)
from .maintenance import (
    BuildReport,
    RefreshReport,
    SampleMaintainer,
    StalenessInfo,
    WindowedBuildReport,
    staleness_from_lineage,
    tracked_columns_from_lineage,
)
from .store import SampleStore, StoreEntryStats
from .windows import (
    SLIDE_SUFFIX,
    covering_window_starts,
    merge_window_samples,
    parse_window_sample_name,
    partition_by_window,
    window_decay_factors,
    window_sample_name,
)

__all__ = [
    "WarehouseFront",
    "WarehouseService",
    "WindowedRefreshReport",
    "RWLock",
    "LRUCache",
]

_TRACER = default_tracer()
_QUERIES = default_registry().counter(
    "repro_queries_total",
    "Queries answered by the warehouse, by route taken",
    ["route"],
)
_QUERY_SECONDS = default_registry().histogram(
    "repro_query_seconds",
    "End-to-end warehouse query latency in seconds",
)
_ANSWER_CACHE = default_registry().counter(
    "repro_answer_cache_total",
    "Answer-cache lookups by result",
    ["result"],
)


def _route_label(route: RouteDecision) -> str:
    return "sample" if route.approximate else "exact"


def _check_mode(mode: str) -> None:
    if mode not in ("auto", "approx", "exact"):
        raise ValueError("mode must be 'auto', 'approx' or 'exact'")


@dataclass
class WindowedRefreshReport:
    """Outcome of rolling a windowed family forward by one batch.

    Duck-types the ``action`` / ``version`` / ``rows_ingested`` fields
    of :class:`~repro.warehouse.maintenance.RefreshReport` so callers
    that only log the outcome (the maintenance daemon, the CLI) handle
    windowed and plain refreshes identically.
    """

    name: str  # family base name
    action: str = "windowed"
    version: Optional[str] = None  # newest open-window version touched
    rows_ingested: int = 0
    #: Window starts freshly built because the batch opened them.
    opened: List[int] = field(default_factory=list)
    #: Open-window starts incrementally refreshed in place.
    refreshed: List[int] = field(default_factory=list)
    #: Window starts dropped by retention this round.
    expired: List[int] = field(default_factory=list)
    #: Late rows addressed to already-closed windows. They still grow
    #: the base table (exact answers see them) but are *not* folded
    #: into the frozen window samples.
    frozen_rows: int = 0
    #: Underlying per-window reports, in processing order.
    reports: List = field(default_factory=list)


class RWLock:
    """Reader-writer lock, writer-preferring.

    Many readers may hold the lock at once; a writer waits for them to
    drain and blocks new readers while waiting (no writer starvation).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class LRUCache:
    """Small thread-safe LRU map for answered queries."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            try:
                value = self._entries.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._entries[key] = value  # move to MRU end
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def counters(self) -> Dict[str, int]:
        """Atomic ``{size, capacity, hits, misses}`` snapshot.

        ``hits``/``misses``/size are mutated together under the cache
        lock; reading them as separate attribute accesses (as `/stats`
        once did) can observe a torn view mid-lookup during a version
        hot-swap. Always report them via this method.
        """
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class WarehouseFront:
    """The read path shared by both warehouse fronts.

    Holds the serving state — routing session, read-write lock,
    maintenance mutex, answer cache, epoch — and answers queries,
    attaches accuracy contracts, checks sliding-window ranges and
    reports introspection, each written once here. A front supplies two
    hooks: :meth:`_answer` (produce one answer plus the routed sample's
    snapshot) and :meth:`_materialize_slide` (make a covering
    sliding-window sample routable). Maintenance is the front's own; it
    fills ``_versions``/``_lineages``/``_families`` and calls
    :meth:`_bump` under the write lock.
    """

    def __init__(
        self, tables: Optional[Mapping[str, Table]], cache_size: int
    ) -> None:
        self._session = AQPSession(tables)
        self._lock = RWLock()
        self._maintenance = threading.Lock()  # serializes writers' work
        self._cache = LRUCache(cache_size)
        self._epoch = 0
        self._versions: Dict[str, str] = {}  # sample -> served version
        self._lineages: Dict[str, Dict] = {}  # sample -> served lineage
        #: Windowed sample families, keyed by base name. Each value
        #: holds the partitioning config and the retained members:
        #: ``{"column", "width", "table_name", "group_by",
        #: "value_columns", "budget", "windows": {start: version}}``,
        #: plus the serving-time ``decay``/``retention`` a plain front
        #: declares at build time (absent or ``None``: no decay,
        #: unbounded retention).
        self._families: Dict[str, Dict] = {}
        #: Signature of each registered slide sample:
        #: ``slide name -> ((start, version), ...)`` it was merged
        #: from, so a repeat query over the same range skips the
        #: re-merge (and the epoch bump that would empty the answer
        #: cache).
        self._slides: Dict[str, tuple] = {}
        self.queries_served = 0

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _answer(self, sql: str, mode: str, max_cv: Optional[float] = None):
        """One uncached answer: ``(AQPResult, snapshot)``.

        ``snapshot`` is the routed sample's ``(version, lineage,
        allocation)`` (see :meth:`_snapshot`), taken under the same
        read-lock acquisition as routing so the contract names the
        version the route was computed against; ``None`` for exact
        routes. ``mode`` is already validated.
        """
        raise NotImplementedError

    def _materialize_slide(
        self, base: str, family: Dict, starts: Sequence[int]
    ) -> None:
        """Make the merge of ``family``'s members at ``starts``
        routable as ``base + SLIDE_SUFFIX`` (no-op when the registered
        slide already covers exactly these versions — see
        :meth:`_slide_signature`)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def query(self, sql: str, mode: str = "auto") -> AQPResult:
        """Answer ``sql``; concurrent-safe, memoized per store epoch."""
        _check_mode(mode)
        t0 = time.perf_counter()
        self._ensure_slide(sql)
        key = (self._epoch, mode, sql)
        cached = self._cached(key, t0)
        if cached is not None:
            return cached
        result, _ = self._answer(sql, mode)
        self.queries_served += 1
        # A writer may have swapped while we executed; only cache
        # results that are still current.
        if key[0] == self._epoch:
            self._cache.put(key, result)
        _QUERIES.inc(route=_route_label(result.route))
        _QUERY_SECONDS.observe(time.perf_counter() - t0)
        return result

    def query_with_contract(
        self,
        sql: str,
        mode: str = "auto",
        max_cv: Optional[float] = None,
        max_staleness: Optional[float] = None,
        on_violation: str = "fallback",
    ) -> ContractedResult:
        """Answer ``sql`` with an accuracy contract attached.

        The contract (per-group predicted CV, served sample version,
        staleness, exact-fallback flag) is built from the snapshot
        :meth:`_answer` took under the same read lock as routing, so it
        names exactly the version the route was computed against — even
        while writers hot-swap versions concurrently.

        ``max_cv`` bounds the worst per-group predicted CV for the
        column(s) the query aggregates and ``max_staleness`` bounds the
        served sample's staleness ratio. ``max_cv`` is also handed to
        the router, which *prefers* a sample satisfying it on the
        queried columns over the globally-lowest-CV sample — exact
        fallback happens only when no stored sample qualifies. When the
        routed sample still violates a constraint, the query is re-run
        exactly (``on_violation="fallback"``, the default — exact
        answers satisfy any accuracy constraint) or rejected with
        :class:`AccuracyContractViolation` (``on_violation="reject"``,
        or ``mode="approx"`` where exact execution is not allowed).

        Thread-safe; memoized per store epoch like :meth:`query`.
        Raises :class:`ValueError` for a bad ``mode``/``on_violation``
        and propagates SQL errors from the engine.
        """
        if on_violation not in ("fallback", "reject"):
            raise ValueError("on_violation must be 'fallback' or 'reject'")
        _check_mode(mode)
        t0 = time.perf_counter()
        below_retention = self._ensure_slide(sql)
        if below_retention is not None and (
            on_violation == "reject" or mode == "approx"
        ):
            # The requested time range reaches below the windowed
            # family's retention horizon: no retained sample can speak
            # for those rows, and the caller refused exact fallback.
            constraints: Dict[str, float] = {}
            if max_cv is not None:
                constraints["max_cv"] = float(max_cv)
            if max_staleness is not None:
                constraints["max_staleness"] = float(max_staleness)
            _QUERIES.inc(route="rejected")
            raise AccuracyContractViolation(
                [below_retention],
                AccuracyContract(
                    executed="exact",
                    fallback_exact=False,
                    reason=below_retention,
                    constraints=constraints,
                    satisfied=False,
                ),
            )
        key = ("contract", self._epoch, mode, sql, max_cv, max_staleness,
               on_violation)
        cached = self._cached(key, t0)
        if cached is not None:
            return cached
        result, snapshot = self._answer(sql, mode, max_cv=max_cv)
        route_label = _route_label(result.route)
        with _TRACER.span("warehouse.contract"):
            contract, violations = self._contract_for(
                result.route, mode, max_cv, max_staleness, snapshot
            )
        if violations:
            if on_violation == "reject" or mode == "approx":
                _QUERIES.inc(route="rejected")
                raise AccuracyContractViolation(violations, contract)
            with _TRACER.span("warehouse.fallback_exact"):
                result, _ = self._answer(sql, "exact")
            route_label = "fallback"
            contract = AccuracyContract(
                executed="exact",
                fallback_exact=True,
                reason="accuracy constraints unsatisfied by stored "
                "samples (" + "; ".join(violations) + "); executed "
                "exactly",
                constraints=contract.constraints,
                satisfied=True,
            )
        self.queries_served += 1
        answer = ContractedResult(result=result, contract=contract)
        if key[1] == self._epoch:
            self._cache.put(key, answer)
        _QUERIES.inc(route=route_label)
        _QUERY_SECONDS.observe(time.perf_counter() - t0)
        return answer

    def execute(self, sql: str) -> Table:
        """Exact execution over the base tables; returns the answer
        :class:`~repro.engine.table.Table` (no routing provenance)."""
        return self.query(sql, mode="exact").table

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic swap counter; bumps on every structural change."""
        return self._epoch

    def samples(self) -> List[str]:
        """Names of the samples currently live in the router."""
        with self._lock.read():
            return self._session.samples()

    def served_versions(self) -> Dict[str, str]:
        """Snapshot of ``{sample name: served store version}``."""
        with self._lock.read():
            return dict(self._versions)

    def served_lineages(self) -> Dict[str, Dict]:
        """Snapshot of each served sample's lineage (staleness, drift,
        refresh history) — in-memory, no store I/O."""
        with self._lock.read():
            return {name: dict(li) for name, li in self._lineages.items()}

    def sample_summaries(self) -> List[Dict]:
        """One JSON-ready dict per live sample (version, shape,
        staleness, drift) from in-memory state — cheap enough to serve
        on every ``GET /samples`` without touching the store."""
        with self._lock.read():
            out = []
            for name in self._session.samples():
                sample = self._session.catalog.get(name)
                lineage = self._lineages.get(name, {})
                tracked = tracked_columns_from_lineage(
                    lineage, sample.allocation.stats
                )
                out.append(
                    {
                        "name": name,
                        "version": self._versions.get(name),
                        "window": self._session.sample_window(name),
                        "rows": sample.num_rows,
                        "strata": sample.allocation.num_strata,
                        "by": list(sample.allocation.by),
                        "columns": tracked,
                        "primary_column": tracked[0] if tracked else None,
                        "staleness": staleness_from_lineage(lineage),
                        "drift": float(lineage.get("drift", 1.0)),
                        "drift_by_column": {
                            c: float(d)
                            for c, d in (
                                lineage.get("drift_by_column") or {}
                            ).items()
                        },
                        "needs_rebuild": bool(
                            lineage.get("needs_rebuild", False)
                        ),
                    }
                )
            return out

    def health(self) -> Dict:
        """Liveness snapshot (no store I/O) for ``GET /healthz``."""
        with self._lock.read():
            return {
                "status": "ok",
                "epoch": self._epoch,
                "tables": len(self._session.tables),
                "samples": len(self._versions),
                "queries_served": self.queries_served,
            }

    def _serving_stats(self) -> Dict:
        """The serving-counter block every front's ``stats()`` starts
        from. Caller holds the read lock."""
        session = self._session
        return {
            "epoch": self._epoch,
            "queries_served": self.queries_served,
            "answer_cache": self._cache.counters(),
            "groupcode_cache": default_group_code_cache().counters(),
            "plan_cache": {
                "hits": session.plan_cache_hits,
                "misses": session.plan_cache_misses,
            },
            "tables": {
                name: table.num_rows
                for name, table in session.tables.items()
            },
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cached(self, key, t0: float):
        """Answer-cache lookup, counted as one served query on a hit."""
        cached = self._cache.get(key)
        if cached is None:
            _ANSWER_CACHE.inc(result="miss")
            _TRACER.annotate(answer_cache="miss")
            return None
        self.queries_served += 1
        _ANSWER_CACHE.inc(result="hit")
        _TRACER.annotate(answer_cache="hit")
        _QUERIES.inc(route="cached")
        _QUERY_SECONDS.observe(time.perf_counter() - t0)
        return cached

    def _snapshot(self, route: RouteDecision):
        """``(version, lineage, allocation)`` of the routed sample, or
        ``None`` for an exact route. Caller holds the read lock the
        route was computed under."""
        if not route.approximate:
            return None
        name = route.sample_name
        return (
            self._versions.get(name),
            self._lineages.get(name, {}),
            self._session.catalog.get(name).allocation,
        )

    def _contract_for(
        self,
        route: RouteDecision,
        mode: str,
        max_cv: Optional[float],
        max_staleness: Optional[float],
        snapshot,
    ):
        """Contract + violation list for a routing decision and the
        :meth:`_snapshot` taken with it."""
        if not route.approximate:
            return build_contract(
                route, mode, max_cv, max_staleness,
                sample_version=None, lineage={}, staleness=0.0,
                group_keys=None,
            )
        version, lineage, allocation = snapshot
        return build_contract(
            route, mode, max_cv, max_staleness,
            sample_version=version,
            lineage=lineage,
            staleness=staleness_from_lineage(lineage),
            group_keys=tuple(tuple(k) for k in allocation.keys),
            window_bounds=route.window_bounds,
        )

    def _ensure_slide(self, sql: str) -> Optional[str]:
        """Materialize the merged sliding-window sample ``sql`` needs.

        Called before every query while windowed families exist. When
        the query's WHERE clause pins a time range on a family's
        timestamp column and the retained windows cover it, the front
        makes the covering members routable as ``<base>@slide`` (see
        :meth:`_materialize_slide`); a repeat query over the same range
        reuses the previous merge and changes nothing.

        Returns a violation message when the range reaches *below* the
        oldest window of a family with ``retention`` set (rows there
        may have been pruned; the contract path turns that into a 412),
        otherwise ``None`` — ranges below a family that never pruned,
        beyond the newest window or over a gap simply fall back to
        exact, which still has every row.
        """
        if not self._families:
            return None
        try:
            parsed = parse_query(sql)
        except Exception:
            return None  # let the session raise the real error
        table_ref = getattr(parsed.from_clause, "name", None)
        for base, family in list(self._families.items()):
            if table_ref != family["table_name"]:
                continue
            bounds = extract_time_bounds(parsed, family["column"])
            if bounds is None:
                continue
            lo, hi = bounds
            if lo is None:
                continue  # unbounded past: would need every window ever
            with self._lock.read():
                retained = sorted(family["windows"])
            if not retained:
                continue
            width = family["width"]
            horizon = retained[-1] + width
            if lo < retained[0]:
                if not family.get("retention"):
                    continue  # nothing pruned: exact fallback
                hi_text = hi if hi is not None else "now"
                return (
                    f"time range [{lo}, {hi_text}) on "
                    f"{family['column']!r} reaches below the retention "
                    f"horizon of windowed sample {base!r} (oldest "
                    f"retained window starts at {retained[0]})"
                )
            hi_eff = hi if hi is not None else horizon
            if hi_eff <= lo or hi_eff > horizon:
                continue  # empty or not-yet-sampled range: exact
            needed = covering_window_starts(lo, hi_eff, width)
            if any(start not in family["windows"] for start in needed):
                continue  # gap window: exact fallback
            if len(needed) > 1:
                self._materialize_slide(base, family, needed)
        return None

    def _slide_signature(
        self, slide: str, family: Dict, starts: Sequence[int]
    ) -> Optional[tuple]:
        """``((start, version), ...)`` of the members a slide over
        ``starts`` merges — or ``None`` when a member expired or
        ``slide`` is already registered from exactly these versions."""
        with self._lock.read():
            signature = tuple(
                (start, family["windows"].get(start)) for start in starts
            )
            if (
                any(v is None for _, v in signature)
                or self._slides.get(slide) == signature
            ):
                return None
        return signature

    def _bump(self) -> None:
        """Invalidate answers; caller must hold the write lock."""
        self._epoch += 1
        self._cache.clear()


class WarehouseService(WarehouseFront):
    """Thread-safe query endpoint over a persistent sample warehouse.

    Construct with a store root (or :class:`SampleStore`) and a mapping
    of base tables; stored samples whose base table is registered are
    adopted immediately, the rest wait as orphans until
    :meth:`register_table` supplies their table. :meth:`query` answers
    SQL through the AQP router; :meth:`query_with_contract` additionally
    attaches a per-query :class:`~repro.warehouse.contracts.AccuracyContract`
    and enforces caller accuracy constraints. All public methods are
    safe to call from many threads; see the module docstring for the
    locking discipline.
    """

    def __init__(
        self,
        store,
        tables: Optional[Mapping[str, Table]] = None,
        cache_size: int = 128,
        cv_degradation_threshold: float = 1.5,
        keep_versions: int = 4,
        backend=None,
        cache_scope: str = "",
    ) -> None:
        self.store = (
            store
            if isinstance(store, SampleStore)
            else SampleStore(store, backend=backend)
        )
        self.maintainer = SampleMaintainer(
            self.store,
            cv_degradation_threshold=cv_degradation_threshold,
            keep_versions=keep_versions,
        )
        super().__init__(tables, cache_size)
        # Distinguishes services sharing one process that serve
        # different row sets under the same (sample, version) — e.g.
        # in-process shard workers — in the group-code cache key.
        self._cache_scope = cache_scope
        self._orphans: Dict[str, str] = {}  # sample -> missing base table
        self._warm_start()

    # ------------------------------------------------------------------
    # registration / building
    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Table) -> None:
        """Register (or replace) a base table; adopts any stored samples
        that were waiting for it."""
        with self._maintenance:
            adopted = [
                s for s, t in self._orphans.items() if t == name
            ]
            loaded = {s: self.store.get(s) for s in adopted}
            with self._lock.write():
                self._session.register_table(name, table)
                for sample_name, stored in loaded.items():
                    self._stamp_cache_token(sample_name, stored)
                    self._session.register_sample(
                        sample_name, stored.sample, name, replace=True
                    )
                    self._versions[sample_name] = stored.version
                    self._lineages[sample_name] = dict(stored.lineage)
                    del self._orphans[sample_name]
                self._bump()

    def build(
        self,
        name: str,
        table_name: str,
        group_by: Sequence[str],
        value_columns: Sequence[str],
        budget: int,
        seed: int = 0,
    ) -> BuildReport:
        """Two-pass build into the store, then swap it live."""
        with self._maintenance:
            with self._lock.read():
                table = self._session.tables.get(table_name)
            if table is None:
                raise KeyError(f"unknown base table {table_name!r}")
            report = self.maintainer.build(
                name,
                table,
                group_by=group_by,
                value_columns=value_columns,
                budget=budget,
                table_name=table_name,
                seed=seed,
            )
            stored = self.store.get(name, report.version)
            self._stamp_cache_token(name, stored)
            with self._lock.write():
                self._session.register_sample(
                    name, stored.sample, table_name, replace=True
                )
                self._versions[name] = report.version
                self._lineages[name] = dict(stored.lineage)
                self._bump()
        return report

    def build_windowed(
        self,
        name: str,
        table_name: str,
        group_by: Sequence[str],
        value_columns: Sequence[str],
        budget: int,
        ts_column: str,
        window: str,
        decay: Optional[float] = None,
        retention: Optional[int] = None,
        seed: int = 0,
    ) -> WindowedBuildReport:
        """Build a *windowed family*: one store member per tumbling
        window of ``ts_column``, all swapped live at once.

        ``window`` is a width spec (``"1h"``, ``"30m"``, ``3600``);
        ``budget`` is per window. ``decay`` (0 < decay <= 1) applies
        exponential age-weighting when sliding-window queries merge
        windows — each window older than the newest is scaled by
        ``decay`` per window of age. ``retention`` keeps only the
        newest N windows; refreshes prune older members and queries
        reaching below the horizon are rejected on the contract path
        (HTTP 412). Queries with a ``WHERE ts_column >= ... [AND <
        ...]`` predicate covered by retained windows route to the
        member (single window) or to a merged slide sample
        (:data:`~repro.warehouse.windows.SLIDE_SUFFIX`) whose
        per-(stratum, column) moments are merged exactly.
        """
        if decay is not None and not (0.0 < float(decay) <= 1.0):
            raise ValueError("decay must be in (0, 1]")
        if retention is not None and int(retention) < 1:
            raise ValueError("retention must be >= 1 window")
        with self._maintenance:
            with self._lock.read():
                table = self._session.tables.get(table_name)
            if table is None:
                raise KeyError(f"unknown base table {table_name!r}")
            report = self.maintainer.build_windowed(
                name,
                table,
                group_by=group_by,
                value_columns=value_columns,
                budget=budget,
                ts_column=ts_column,
                window=window,
                table_name=table_name,
                seed=seed,
            )
            width = report.width
            family = {
                "column": ts_column,
                "width": width,
                "decay": float(decay) if decay is not None else None,
                "retention": int(retention) if retention else None,
                "table_name": table_name,
                "group_by": list(group_by),
                "value_columns": list(dict.fromkeys(value_columns)),
                "budget": int(budget),
                "windows": {},
            }
            keep = sorted(report.starts)
            expired: List[int] = []
            if retention and len(keep) > int(retention):
                expired = keep[: -int(retention)]
                keep = keep[-int(retention):]
            loaded = {}
            for window_report in report.windows:
                start = int(window_report.name.rsplit("@w", 1)[1])
                if start in expired:
                    continue
                loaded[start] = self.store.get(
                    window_report.name, window_report.version
                )
            with self._lock.write():
                for start in keep:
                    stored = loaded[start]
                    member = window_sample_name(name, start)
                    self._stamp_cache_token(member, stored)
                    self._session.register_sample(
                        member,
                        stored.sample,
                        table_name,
                        replace=True,
                        window={
                            "column": ts_column,
                            "start": start,
                            "end": start + width,
                        },
                    )
                    self._versions[member] = stored.version
                    self._lineages[member] = dict(stored.lineage)
                    family["windows"][start] = stored.version
                self._drop_slide_locked(name)
                self._families[name] = family
                self._bump()
            for start in expired:
                self.store.delete(window_sample_name(name, start))
        return report

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def refresh(
        self,
        name: str,
        batch: Table,
        seed: int = 0,
        columns: Optional[Sequence[str]] = None,
    ) -> RefreshReport:
        """Fold an appended batch into sample ``name`` and swap the new
        version live; the base table grows by ``batch`` too, so exact
        fallback keeps matching the sampled reality. ``columns``
        overrides the tracked value-column set for this and subsequent
        refreshes (default: the build-time lineage).

        When ``name`` is a windowed family base, the batch is instead
        partitioned by the family's timestamp column and rolled
        forward window by window (see :meth:`_refresh_windowed`);
        the return value is then a :class:`WindowedRefreshReport`."""
        if name in self._families:
            return self._refresh_windowed(name, batch, seed=seed)
        with self._maintenance:
            stored = self.store.get(name)
            table_name = stored.table_name
            with self._lock.read():
                base = (
                    self._session.tables.get(table_name)
                    if table_name
                    else None
                )
            grown = base.concat(batch) if base is not None else None
            report = self.maintainer.refresh(
                name, batch, full_table=grown, seed=seed, columns=columns
            )
            fresh = self.store.get(name, report.version)
            self._stamp_cache_token(name, fresh)
            with self._lock.write():
                if grown is not None:
                    self._session.register_table(table_name, grown)
                if table_name and table_name in self._session.tables:
                    self._session.register_sample(
                        name, fresh.sample, table_name, replace=True
                    )
                    self._versions[name] = report.version
                    self._lineages[name] = dict(fresh.lineage)
                self._bump()
        return report

    def _refresh_windowed(
        self, name: str, batch: Table, seed: int = 0
    ) -> WindowedRefreshReport:
        """Roll windowed family ``name`` forward by one batch.

        Batch rows are partitioned by the family's timestamp column:

        * rows in the **newest retained window** refresh that member
          incrementally (streaming resume, moments merged exactly);
        * rows **past** it open fresh windows (full per-window builds
          at the family budget);
        * rows addressed to an already-**closed** window are frozen
          out of the sample — they still grow the base table, so exact
          answers (and ``WHERE`` re-filters) see them, but a closed
          window's published moments never move;
        * with ``retention`` set, members that fall off the horizon
          are dropped from routing and deleted from the store.
        """
        family = self._families[name]
        column = family["column"]
        width = family["width"]
        with self._maintenance:
            if column not in batch:
                raise ValueError(
                    f"windowed family {name!r} partitions on column "
                    f"{column!r}, which the batch does not carry"
                )
            report = WindowedRefreshReport(
                name=name, rows_ingested=batch.num_rows
            )
            newest = max(family["windows"], default=None)
            fresh_parts = []
            for start, part in partition_by_window(
                batch, column, width
            ).items():
                if newest is not None and start < newest:
                    report.frozen_rows += part.num_rows
                elif start in family["windows"]:
                    member = window_sample_name(name, start)
                    sub = self.maintainer.refresh(
                        member, part, seed=seed,
                        columns=family["value_columns"],
                    )
                    report.refreshed.append(start)
                    report.reports.append(sub)
                    report.version = sub.version
                else:
                    fresh_parts.append(part)
            if fresh_parts:
                fresh = fresh_parts[0]
                for part in fresh_parts[1:]:
                    fresh = fresh.concat(part)
                built = self.maintainer.build_windowed(
                    name,
                    fresh,
                    group_by=family["group_by"],
                    value_columns=family["value_columns"],
                    budget=family["budget"],
                    ts_column=column,
                    window=width,
                    table_name=family["table_name"],
                    seed=seed,
                )
                report.opened.extend(built.starts)
                report.reports.extend(built.windows)
                if built.windows:
                    report.version = built.windows[-1].version
            touched = list(report.refreshed) + list(report.opened)
            loaded = {
                start: self.store.get(window_sample_name(name, start))
                for start in touched
            }
            retention = family.get("retention")
            horizon = max(
                set(family["windows"]) | set(report.opened), default=None
            )
            expired = []
            if retention and horizon is not None:
                floor = horizon - (int(retention) - 1) * width
                expired = sorted(
                    s
                    for s in set(family["windows"]) | set(report.opened)
                    if s < floor
                )
            report.expired = expired
            table_name = family["table_name"]
            with self._lock.read():
                base = self._session.tables.get(table_name)
            grown = base.concat(batch) if base is not None else None
            with self._lock.write():
                if grown is not None:
                    self._session.register_table(table_name, grown)
                serving = bool(
                    table_name and table_name in self._session.tables
                )
                for start in touched:
                    if start in expired:
                        continue
                    stored = loaded[start]
                    member = window_sample_name(name, start)
                    if serving:
                        self._stamp_cache_token(member, stored)
                        self._session.register_sample(
                            member,
                            stored.sample,
                            table_name,
                            replace=True,
                            window={
                                "column": column,
                                "start": start,
                                "end": start + width,
                            },
                        )
                        self._versions[member] = stored.version
                        self._lineages[member] = dict(stored.lineage)
                    else:
                        # No base table here (maintenance-only process):
                        # the store write is the durable outcome, the
                        # member just stays orphaned for serving.
                        self._orphans[member] = table_name or ""
                    family["windows"][start] = stored.version
                for start in expired:
                    member = window_sample_name(name, start)
                    if member in self._versions:
                        self._session.drop_sample(member)
                    family["windows"].pop(start, None)
                    self._versions.pop(member, None)
                    self._lineages.pop(member, None)
                    self._orphans.pop(member, None)
                self._drop_slide_locked(name)
                self._bump()
            for start in expired:
                self.store.delete(window_sample_name(name, start))
        return report

    def publish_stored(self, name: str, stored=None) -> bool:
        """Swap a store version of ``name`` live (current unless a
        :class:`~repro.warehouse.store.StoredSample` is given).

        This is the adoption half of :meth:`refresh` on its own, used
        by shard workers after an out-of-band store write (their own
        maintainer run, or a central rebuild pushed into the shard
        store) to hot-swap the new version without re-running the
        ingest. Returns ``True`` when the sample went live, ``False``
        when it stays orphaned (base table not registered).
        """
        with self._maintenance:
            if stored is None:
                stored = self.store.get(name)
            table_name = stored.table_name
            self._stamp_cache_token(name, stored)
            window = getattr(stored, "window", None)
            with self._lock.write():
                if table_name and table_name in self._session.tables:
                    self._session.register_sample(
                        name, stored.sample, table_name, replace=True,
                        window=window,
                    )
                    self._versions[name] = stored.version
                    self._lineages[name] = dict(stored.lineage)
                    self._orphans.pop(name, None)
                    if window is not None:
                        self._adopt_window_member(name, stored, window)
                    live = True
                else:
                    self._orphans[name] = table_name or ""
                    live = False
                self._bump()
        return live

    def snapshot_sample(self, name: str):
        """Consistent ``(sample, version, lineage)`` snapshot of one
        live sample under the read lock. Versions are immutable, so the
        returned objects stay valid after a concurrent hot-swap."""
        with self._lock.read():
            sample = self._session.catalog.get(name)
            return (
                sample,
                self._versions.get(name),
                dict(self._lineages.get(name, {})),
            )

    def staleness(self, name: str) -> StalenessInfo:
        """Maintenance state of the current *stored* version of
        ``name`` (reads the store; raises :class:`KeyError` for unknown
        samples). See :meth:`served_lineages` for the in-memory view of
        what is being served."""
        return self.maintainer.staleness(name)

    # ------------------------------------------------------------------
    # advising
    # ------------------------------------------------------------------
    def advise(
        self,
        workload: Workload,
        table_name: str,
        storage_budget: int,
        target_cv: float = 0.05,
        materialize: bool = False,
        seed: int = 0,
    ) -> AdvisorPlan:
        """Recommend (and optionally build) samples for a workload."""
        with self._lock.read():
            table = self._session.tables.get(table_name)
        if table is None:
            raise KeyError(f"unknown base table {table_name!r}")
        plan = advise(
            workload, table, storage_budget, target_cv=target_cv
        )
        if materialize:
            for rec in plan.recommendations:
                cand = rec.candidate
                self.build(
                    rec.name,
                    table_name,
                    group_by=cand.attrs,
                    value_columns=cand.agg_columns,
                    budget=cand.budget,
                    seed=seed,
                )
        return plan

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _answer(self, sql: str, mode: str, max_cv: Optional[float] = None):
        """Route and execute through the session under one read lock."""
        with self._lock.read():
            result = self._session.query(sql, mode=mode, max_cv=max_cv)
            return result, self._snapshot(result.route)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Store accounting + serving counters in one snapshot."""
        entries: List[StoreEntryStats] = self.store.stats()
        with self._lock.read():
            stats = self._serving_stats()
            stats["store"] = {
                "root": str(self.store.root),
                "backend": getattr(self.store.backend, "name", "npz"),
                "manifest": self.store.manifest_position(),
            }
            stats["samples"] = {
                e.name: {
                    "version": e.current_version,
                    "served_version": self._versions.get(e.name),
                    "versions": e.num_versions,
                    "rows": e.rows,
                    "strata": e.strata,
                    "by": list(e.by),
                    "columns": dict(e.columns),
                    "method": e.method,
                    "backend": e.backend,
                    "bytes": e.bytes_on_disk,
                    "staleness": e.lineage.get("staleness", 0.0),
                    "needs_rebuild": e.lineage.get("needs_rebuild", False),
                }
                for e in entries
            }
            return stats

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _materialize_slide(
        self, base: str, family: Dict, starts: Sequence[int]
    ) -> None:
        """Merge the members at ``starts`` into the family's slide
        sample (moments merged exactly, decay applied when the family
        declares it) and swap it live."""
        slide = base + SLIDE_SUFFIX
        if self._slide_signature(slide, family, starts) is None:
            return
        with self._maintenance:
            # Re-check: another writer may have merged or expired a
            # member while this one waited for the mutex.
            signature = self._slide_signature(slide, family, starts)
            if signature is None:
                return
            members = [
                self.store.get(window_sample_name(base, start), version)
                for start, version in signature
            ]
            factors = None
            if family.get("decay"):
                by_start = window_decay_factors(
                    [start for start, _ in signature],
                    family["width"],
                    family["decay"],
                )
                factors = [by_start[start] for start, _ in signature]
            merged = merge_window_samples(
                [m.sample for m in members], factors=factors
            )
            width = family["width"]
            window_block = {
                "column": family["column"],
                "start": int(signature[0][0]),
                "end": int(signature[-1][0]) + width,
            }
            version = "+".join(version for _, version in signature)
            lineage = {
                "action": "window-merge",
                "window": dict(window_block),
                "windows": [start for start, _ in signature],
                "value_columns": list(family["value_columns"]),
                "drift": max(
                    float(m.lineage.get("drift", 1.0)) for m in members
                ),
                "needs_rebuild": any(
                    bool(m.lineage.get("needs_rebuild"))
                    for m in members
                ),
            }
            event_ts = [
                m.lineage.get("max_event_ts")
                for m in members
                if m.lineage.get("max_event_ts") is not None
            ]
            if event_ts:
                lineage["max_event_ts"] = int(max(event_ts))
            merged.table.cache_token = (self._cache_scope, slide, version)
            with self._lock.write():
                self._session.register_sample(
                    slide,
                    merged,
                    family["table_name"],
                    replace=True,
                    window=window_block,
                )
                self._versions[slide] = version
                self._lineages[slide] = lineage
                self._slides[slide] = signature
                self._bump()

    def _drop_slide_locked(self, base: str) -> None:
        """Unregister the family's slide sample (members changed, so
        the merge is stale). Caller holds the write lock."""
        slide = base + SLIDE_SUFFIX
        if slide in self._slides:
            self._session.drop_sample(slide)
            self._slides.pop(slide, None)
            self._versions.pop(slide, None)
            self._lineages.pop(slide, None)

    def _warm_start(self) -> None:
        """Adopt every stored sample whose base table is registered.

        A sample with no readable version (e.g. memory-backend blobs
        from another process) is skipped rather than failing startup —
        the store keeps it for whoever can read it. Window members
        (format-4 metas carrying a ``window`` block) are additionally
        folded back into their family registry so sliding-window
        routing survives a restart.

        With the mmap backend the ``store.get`` here is O(metadata):
        sample tables come back lazy and no column bytes are read until
        a query touches them, so warm start (and the daemon's version
        hot-swap, which rides the same path) costs parse-the-sidecar
        per sample regardless of row counts.
        """
        for name in self.store.names():
            try:
                stored = self.store.get(name)
            except KeyError:
                continue
            table_name = stored.table_name
            if table_name and table_name in self._session.tables:
                self._stamp_cache_token(name, stored)
                window = getattr(stored, "window", None)
                self._session.register_sample(
                    name, stored.sample, table_name, replace=True,
                    window=window,
                )
                self._versions[name] = stored.version
                self._lineages[name] = dict(stored.lineage)
                if window is not None:
                    self._adopt_window_member(name, stored, window)
            else:
                self._orphans[name] = table_name or ""
                # Family bookkeeping must survive orphaning: refresh
                # rolls windows forward purely against the store, so a
                # maintenance-only process (no base table registered —
                # e.g. ``warehouse refresh`` from the CLI) still needs
                # the family registry to route the batch by window.
                window = getattr(stored, "window", None)
                if window is not None:
                    self._adopt_window_member(name, stored, window)

    def _adopt_window_member(
        self, name: str, stored, window: Dict
    ) -> None:
        """Fold one stored window member into its family registry.

        Family-level build parameters (group-by, tracked columns,
        per-window budget) are recovered from the member itself so a
        restarted service can keep opening new windows on refresh; the
        family has no decay and unbounded retention until the next
        :meth:`build_windowed` declares them.
        """
        parsed = parse_window_sample_name(name)
        base = parsed[0] if parsed else name
        family = self._families.setdefault(
            base,
            {
                "column": str(window["column"]),
                "width": int(window["width"]),
                "decay": None,
                "retention": None,
                "table_name": stored.table_name,
                "group_by": list(stored.sample.allocation.by),
                "value_columns": tracked_columns_from_lineage(
                    stored.lineage, stored.sample.allocation.stats
                ),
                "budget": int(stored.sample.budget),
                "windows": {},
            },
        )
        family["windows"][int(window["start"])] = stored.version

    def _stamp_cache_token(self, name: str, stored) -> None:
        """Mark one published sample version's table as immutable for
        the per-version group-code cache (:mod:`repro.engine.groupcache`).

        Each ``store.get`` loads a fresh :class:`Table`, so the stamp
        covers exactly one immutable incarnation; the version in the
        token keeps hot-swapped versions apart, and the scope keeps
        in-process shard workers (same name+version, different rows)
        apart.
        """
        stored.sample.table.cache_token = (
            self._cache_scope,
            name,
            stored.version,
        )
