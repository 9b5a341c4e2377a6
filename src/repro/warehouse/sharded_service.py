"""Scatter-gather front over a sharded sample warehouse.

:class:`ShardedWarehouseService` is a
:class:`~repro.warehouse.service.WarehouseFront`: query serving,
accuracy contracts, the sliding-window range check and introspection
are the shared read path. Its samples live in N ``shard-NN/``
sub-stores, each owned by a shard worker (:mod:`repro.serve.worker`),
so this module supplies the front's hooks and its own maintenance:

* **Routing and exact execution stay central.** The front keeps the
  real base tables, and its routing session's "samples" are metadata
  stand-ins: the *merged* shard allocations (exact — strata are never
  split across shards, so keys, populations, sizes and per-column
  moments concatenate verbatim) under an empty row table.
* **Row work scatters** (the ``_answer`` hook). A decomposable
  aggregate query fans out to every shard worker concurrently; each
  returns per-group ``(count, total, m2)`` moment blocks over its
  slice, the front combines them
  (:func:`~repro.warehouse.partials.merge_partials`) and finalizes one
  answer table — numerically the unsharded answer up to float
  summation order. Non-decomposable queries (MEDIAN, HAVING, joins,
  ...) execute exactly at the front. A sliding-window slide (the
  ``_materialize_slide`` hook) is a merged stand-in too; its answers
  scatter once per covered window member.
* **Maintenance parallelizes per shard.** A refresh batch is
  partitioned by stratum hash and folded into every shard at once,
  each worker hot-swapping its own new version; rebuild escalation is
  decided centrally (a shard only sees its strata) and pushed back
  down as freshly split pieces.
* **Column projection rides the scatter.** Workers adopt their
  sub-store samples lazily under the ``mmap`` backend, and
  :func:`~repro.warehouse.partials.compute_partials` narrows each
  sample to the columns the decomposed query references before
  filtering — so N workers on one host share one page-cache copy of
  the hot columns rather than N deserialized ones.

``--shards 1`` deployments should not construct this class at all —
the CLI routes them to the plain ``WarehouseService`` so the
single-store layout stays byte-identical to previous releases.
"""

from __future__ import annotations

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence

from ..aqp.session import AQPResult, RouteDecision
from ..core.cvopt import CVOptSampler
from ..core.sample import StratifiedSample
from ..core.spec import GroupByQuerySpec
from ..engine.sql.errors import QueryExecutionError
from ..engine.sql.parser import parse_query
from ..engine.table import Table
from ..serve.worker import (
    InProcessShardClient,
    ProcessShardClient,
    ShardWorkerError,
)
from .maintenance import (
    BuildReport,
    RefreshReport,
    WindowedBuildReport,
    _fresh_lineage,
    staleness_from_lineage,
)
from ..obs import current_trace_id, default_registry, default_tracer
from .partials import decompose, finalize_partials, merge_partials
from .service import WarehouseFront, WindowedRefreshReport
from .sharding import (
    SHARD_SCHEME,
    ShardedSampleStore,
    merge_shard_allocations,
    partition_table,
)
from .windows import (
    SLIDE_SUFFIX,
    merge_window_allocations,
    parse_window,
    parse_window_sample_name,
    partition_by_window,
    window_sample_name,
)

__all__ = ["ShardedWarehouseService"]

_TRACER = default_tracer()
_SHARD_RPC = default_registry().histogram(
    "repro_shard_rpc_seconds",
    "Per-shard worker RPC latency in seconds",
    ["op", "shard"],
)
_SHARD_FALLBACK = default_registry().counter(
    "repro_shard_fallback_total",
    "Sharded queries that fell back to exact execution, by reason",
    ["reason"],
)


class _StandIn(StratifiedSample):
    """Routing-only sample: a merged allocation over no rows, reporting
    the row count its shards hold."""

    def __init__(self, info: Dict) -> None:
        super().__init__(
            table=Table({}),
            allocation=info["allocation"],
            method=info["method"],
            source_rows=info["source_rows"],
            budget=info["budget"],
        )
        self.rows = int(info["rows"])

    @property
    def num_rows(self) -> int:
        return self.rows


class ShardedWarehouseService(WarehouseFront):
    """Thread-safe scatter-gather endpoint over N shard workers.

    ``store`` is a :class:`~repro.warehouse.sharding.ShardedSampleStore`
    or its root path (``shards`` is required when creating a new one).
    ``workers="process"`` spawns one OS process per shard (the
    deployment topology); ``"inprocess"`` runs the same protocol
    without process boundaries (tests, single-process setups, and any
    backend — like the memory backend — whose blobs other processes
    cannot read).
    """

    def __init__(
        self,
        store,
        tables: Optional[Mapping[str, Table]] = None,
        shards: Optional[int] = None,
        backend=None,
        cache_size: int = 128,
        cv_degradation_threshold: float = 1.5,
        keep_versions: int = 4,
        workers: str = "process",
    ) -> None:
        if workers not in ("process", "inprocess"):
            raise ValueError("workers must be 'process' or 'inprocess'")
        self.store = (
            store
            if isinstance(store, ShardedSampleStore)
            else ShardedSampleStore(store, shards=shards, backend=backend)
        )
        self.num_shards = self.store.num_shards
        self.cv_degradation_threshold = float(cv_degradation_threshold)
        self.keep_versions = int(keep_versions)
        super().__init__(tables, cache_size)
        #: Live merged per-sample view (a slide's also lists the
        #: window ``members`` its answers fan out to). Windowed families
        #: are rebuilt from the shards' window-tagged metas, without
        #: decay or retention: partials recompute from raw sample rows,
        #: so per-window weight scaling cannot apply.
        self._meta: Dict[str, Dict] = {}
        self._orphans: Dict[str, Dict] = {}  # base table not registered
        self._pool = ThreadPoolExecutor(
            max_workers=max(self.num_shards, 1),
            thread_name_prefix="shard-fanout",
        )
        worker_opts = {
            "cv_degradation_threshold": self.cv_degradation_threshold,
            "keep_versions": self.keep_versions,
        }
        if workers == "process":
            backend_name = (
                backend
                if isinstance(backend, str) or backend is None
                else getattr(backend, "name", None)
            )
            self.clients = [
                ProcessShardClient(
                    self.store.root, i, backend=backend_name, **worker_opts
                )
                for i in range(self.num_shards)
            ]
        else:
            self.clients = [
                InProcessShardClient(
                    self.store.root, i, backend=backend, **worker_opts
                )
                for i in range(self.num_shards)
            ]
        self.refresh_metadata()

    # ------------------------------------------------------------------
    # scatter plumbing
    # ------------------------------------------------------------------
    def _scatter(self, op: str, payloads=None) -> List[Dict]:
        """Send ``op`` to every shard concurrently; raises the first
        shard failure. ``payloads`` is one kwargs dict per shard (or
        None for an empty payload everywhere).

        Each request is submitted through a fresh
        ``contextvars.copy_context()`` because ``ThreadPoolExecutor``
        does not propagate context — without the copy, per-shard RPC
        spans opened in pool threads would detach from the request's
        trace.
        """
        payloads = payloads or [{} for _ in self.clients]
        futures = [
            self._pool.submit(
                contextvars.copy_context().run,
                self._timed_request,
                client,
                op,
                payload,
            )
            for client, payload in zip(self.clients, payloads)
        ]
        return [f.result() for f in futures]

    def _timed_request(
        self, client, op: str, payload: Dict
    ) -> Dict:
        """One shard RPC with a latency histogram sample and (when a
        trace is active in this context) a ``shard.rpc`` span."""
        shard = str(client.shard_index)
        t0 = time.perf_counter()
        try:
            with _TRACER.span("shard.rpc", op=op, shard=client.shard_index):
                return client.request(op, **payload)
        finally:
            _SHARD_RPC.observe(
                time.perf_counter() - t0, op=op, shard=shard
            )

    # ------------------------------------------------------------------
    # merged metadata
    # ------------------------------------------------------------------
    def refresh_metadata(self) -> None:
        """Rebuild the front's merged per-sample view from the shards.

        Pulls every shard's ``sample_meta``, merges the disjoint
        allocations and lineages, and swaps metadata stand-ins into the
        routing session (samples whose base table is not registered
        wait as orphans). Called after every structural change; cheap —
        metadata only, no sample rows cross the wire.
        """
        metas = self._scatter("sample_meta")
        names: Dict[str, None] = {}
        for meta in metas:
            for name in meta["samples"]:
                names.setdefault(name, None)
        merged: Dict[str, Dict] = {}
        for name in names:
            shard_metas = [meta["samples"].get(name) for meta in metas]
            if any(m is None for m in shard_metas):
                # A sample not yet live on every shard (mid-publish) is
                # not routable: merging a subset would under-count.
                continue
            allocation = merge_shard_allocations(
                [m["allocation"] for m in shard_metas]
            )
            table_name = next(
                (
                    meta["tables"].get(name)
                    for meta in metas
                    if meta["tables"].get(name)
                ),
                None,
            )
            versions = [m["version"] for m in shard_metas]
            merged[name] = {
                "table_name": table_name,
                "allocation": allocation,
                "versions": versions,
                "version": _join_versions(versions),
                "lineage": _merge_lineages(
                    [m["lineage"] for m in shard_metas]
                ),
                "window": shard_metas[0].get("window")
                or shard_metas[0]["lineage"].get("window"),
                "method": shard_metas[0]["method"],
                "rows": sum(m["rows"] for m in shard_metas),
                "source_rows": sum(m["source_rows"] for m in shard_metas),
                "budget": sum(m["budget"] for m in shard_metas),
            }
        with self._lock.write():
            for name in list(self._meta):
                if name not in merged:
                    self._session.drop_sample(name)
            self._meta = {}
            self._orphans = {}
            self._versions = {}
            self._lineages = {}
            # Slides are merged views over members; any structural
            # change invalidates them, and the next query re-merges.
            self._families = {}
            self._slides = {}
            for name, info in merged.items():
                table_name = info["table_name"]
                if table_name and table_name in self._session.tables:
                    self._session.register_sample(
                        name, _StandIn(info), table_name, replace=True,
                        window=info["window"],
                    )
                    self._meta[name] = info
                    self._versions[name] = info["version"]
                    self._lineages[name] = info["lineage"]
                else:
                    self._orphans[name] = info
                # Refresh rolls windows forward against the shard
                # stores alone, so the family registry must exist even
                # while its members are orphaned (no base table
                # registered — maintenance-only processes).
                if info["window"] is not None:
                    self._adopt_window_meta(name, info)
            self._bump()

    def _adopt_window_meta(self, name: str, info: Dict) -> None:
        """Fold one merged window-member view into the family registry
        (caller holds the write lock)."""
        window = info["window"]
        parsed = parse_window_sample_name(name)
        base = parsed[0] if parsed else name
        lineage = info["lineage"]
        family = self._families.setdefault(
            base,
            {
                "column": str(window["column"]),
                "width": int(window["width"]),
                "table_name": info["table_name"],
                "group_by": list(info["allocation"].by),
                "value_columns": list(
                    lineage.get("value_columns") or []
                ),
                "budget": int(info["budget"]),
                "windows": {},
            },
        )
        family["windows"][int(window["start"])] = info["version"]

    # ------------------------------------------------------------------
    # registration / building
    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Table) -> None:
        """Register (or replace) a base table at the front; orphaned
        shard samples waiting for it become routable."""
        with self._maintenance:
            with self._lock.write():
                self._session.register_table(name, table)
                self._bump()
        if any(
            info["table_name"] == name for info in self._orphans.values()
        ):
            self.refresh_metadata()

    def build(
        self,
        name: str,
        table_name: str,
        group_by: Sequence[str],
        value_columns: Sequence[str],
        budget: int,
        seed: int = 0,
    ) -> BuildReport:
        """Two-pass CVOPT build at the front, split by stratum hash,
        committed to every shard sub-store, then hot-swapped live on
        every worker."""
        params = _build_params(table_name, group_by, value_columns, budget)
        with self._maintenance:
            with self._lock.read():
                table = self._session.tables.get(table_name)
            if table is None:
                raise KeyError(f"unknown base table {table_name!r}")
            report = self._commit(name, table, params, seed)
        self.refresh_metadata()
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
        """Windowed family on a sharded warehouse: one central CVOPT
        build per tumbling window, each member split by stratum hash
        across the shard sub-stores and hot-swapped everywhere.

        Windows and shards partition rows along orthogonal axes (time
        vs. stratum hash), so a sliding-window answer merges partials
        across both — each sum is exact. ``decay`` and ``retention``
        are rejected here: shard partials recompute from raw sample
        rows, so per-window weight scaling and horizon pruning live
        only on the unsharded path.
        """
        if decay is not None:
            raise ValueError(
                "decay is unsupported on a sharded warehouse"
            )
        if retention is not None:
            raise ValueError(
                "retention is unsupported on a sharded warehouse"
            )
        family = _build_params(table_name, group_by, value_columns, budget)
        family.update(column=ts_column, width=parse_window(window))
        with self._maintenance:
            with self._lock.read():
                table = self._session.tables.get(table_name)
            if table is None:
                raise KeyError(f"unknown base table {table_name!r}")
            if ts_column not in table:
                raise KeyError(
                    f"timestamp column {ts_column!r} not in table"
                )
            report = self._build_fresh_windows(name, family, table, seed)
        self.refresh_metadata()
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
        """Fold a batch into every shard in parallel.

        The batch is partitioned by the stratum hash of each row's
        group key, so every worker's streaming maintainer sees exactly
        the rows the unsharded maintainer would have folded into its
        strata; each shard hot-swaps its new version independently.
        When the merged drift crosses the escalation threshold, the
        front — which holds the full base table no single shard has —
        runs the two-pass rebuild centrally and pushes freshly split
        pieces back down.

        When ``name`` is a windowed family base, the batch is first
        partitioned by the family's timestamp column and each window
        rolled forward (see :meth:`_refresh_windowed`); the return
        value is then a :class:`WindowedRefreshReport`.
        """
        if name in self._families:
            return self._refresh_windowed(name, batch, seed=seed)
        with self._maintenance:
            info = self._meta.get(name) or self._orphans.get(name)
            if info is None:
                raise KeyError(f"unknown sample {name!r}")
            by = info["allocation"].by
            table_name = info["table_name"]
            with self._lock.read():
                base = (
                    self._session.tables.get(table_name)
                    if table_name
                    else None
                )
            pieces = partition_table(batch, by, self.num_shards)
            payloads = [
                {
                    "name": name,
                    "batch": piece,
                    "seed": seed,
                    "columns": list(columns) if columns else None,
                }
                for piece in pieces
            ]
            live = [i for i, p in enumerate(pieces) if p.num_rows]
            reports = [None] * self.num_shards
            futures = {
                i: self._pool.submit(
                    contextvars.copy_context().run,
                    self._timed_request,
                    self.clients[i],
                    "refresh",
                    payloads[i],
                )
                for i in live
            }
            for i, future in futures.items():
                reports[i] = future.result()["report"]
            grown = base.concat(batch) if base is not None else None
            if grown is not None:
                with self._lock.write():
                    self._session.register_table(table_name, grown)
                    self._bump()
            report = _merge_reports(name, reports, info)
            if report.needs_rebuild and grown is not None:
                report = self._rebuild(name, info, grown, table_name, seed)
        self.refresh_metadata()
        return report

    def _refresh_windowed(
        self, name: str, batch: Table, seed: int = 0
    ) -> WindowedRefreshReport:
        """Roll a sharded windowed family forward by one batch.

        Rows for the newest retained window refresh that member through
        the ordinary sharded refresh (stratum-hash fan-out); rows past
        it open fresh windows via central per-window builds; rows
        addressed to closed windows are frozen out of the samples but
        still grow the front's base table so exact answers see them.
        """
        family = self._families[name]
        column = family["column"]
        width = family["width"]
        table_name = family["table_name"]
        if column not in batch:
            raise ValueError(
                f"windowed family {name!r} partitions on column "
                f"{column!r}, which the batch does not carry"
            )
        report = WindowedRefreshReport(
            name=name, rows_ingested=batch.num_rows
        )
        newest = max(family["windows"], default=None)
        unsampled_rows: List[Table] = []  # frozen + fresh-window rows
        fresh_parts: List[Table] = []
        for start, part in partition_by_window(
            batch, column, width
        ).items():
            if newest is not None and start < newest:
                report.frozen_rows += part.num_rows
                unsampled_rows.append(part)
            elif start in family["windows"]:
                # The ordinary sharded member refresh also grows the
                # base table by this slice.
                sub = self.refresh(
                    window_sample_name(name, start), part, seed=seed
                )
                report.refreshed.append(start)
                report.reports.append(sub)
                report.version = sub.version
            else:
                fresh_parts.append(part)
                unsampled_rows.append(part)
        if fresh_parts:
            fresh = fresh_parts[0]
            for part in fresh_parts[1:]:
                fresh = fresh.concat(part)
            with self._maintenance:
                built = self._build_fresh_windows(name, family, fresh, seed)
            report.opened.extend(built.starts)
            report.reports.extend(built.windows)
            if built.windows:
                report.version = built.windows[-1].version
        if unsampled_rows:
            # Rows no member refresh carried into the base table yet.
            extra = unsampled_rows[0]
            for part in unsampled_rows[1:]:
                extra = extra.concat(part)
            with self._maintenance:
                with self._lock.read():
                    base = self._session.tables.get(table_name)
                if base is not None:
                    with self._lock.write():
                        self._session.register_table(
                            table_name, base.concat(extra)
                        )
                        self._bump()
        self.refresh_metadata()
        return report

    def _build_fresh_windows(
        self, name: str, family: Dict, table: Table, seed: int
    ) -> WindowedBuildReport:
        """One central build per tumbling window ``table``'s rows fall
        in, each committed as a family member. Caller holds the
        maintenance mutex."""
        column = family["column"]
        width = family["width"]
        report = WindowedBuildReport(name=name, column=column, width=width)
        for start, part in partition_by_window(table, column, width).items():
            window_block = {
                "column": column,
                "width": width,
                "start": int(start),
                "end": int(start) + width,
            }
            lineage = {
                "window": dict(window_block),
                "max_event_ts": int(
                    part.column(column).values_numeric().max()
                ),
            }
            report.starts.append(int(start))
            report.windows.append(
                self._commit(
                    window_sample_name(name, start), part, family, seed,
                    lineage=lineage, window=window_block,
                )
            )
        return report

    def _rebuild(
        self, name: str, info: Dict, full_table: Table,
        table_name: Optional[str], seed: int,
    ) -> RefreshReport:
        """Central escalation: rebuild from the full base table at the
        shards' combined budget, split, commit, swap everywhere."""
        lineage = info["lineage"]
        value_columns = list(
            lineage.get("value_columns")
            or ([lineage["value_column"]] if "value_column" in lineage else [])
        ) or list(info["allocation"].stats.columns if info["allocation"].stats else [])
        params = _build_params(
            table_name, info["allocation"].by, value_columns, info["budget"]
        )
        built = self._commit(
            name, full_table, params, seed,
            lineage={
                "action": "rebuild",
                "refresh_count": int(lineage.get("refresh_count", 0)) + 1,
            },
        )
        return RefreshReport(
            name=name,
            version=built.version,
            action="rebuild",
            rows_ingested=0,
            source_rows=built.source_rows,
            sample_rows=built.rows,
            new_strata=0,
            staleness=0.0,
            drift=1.0,
            needs_rebuild=False,
            columns=params["value_columns"],
        )

    def _commit(
        self, name: str, table: Table, params: Dict, seed: int,
        lineage: Optional[Dict] = None, window: Optional[Dict] = None,
    ) -> BuildReport:
        """Two-pass CVOPT build of ``name`` from ``table`` at the front
        (``params`` as :func:`_build_params` makes them; ``lineage``
        entries override the fresh lineage), split by stratum hash,
        committed to every shard sub-store, then hot-swapped live on
        every worker. Caller holds the maintenance mutex."""
        value_columns = params["value_columns"]
        spec = GroupByQuerySpec(
            group_by=tuple(params["group_by"]),
            aggregates=tuple(value_columns),
        )
        sample = CVOptSampler([spec]).sample(
            table, params["budget"], seed=seed
        )
        fresh = _fresh_lineage(value_columns, sample.source_rows)
        fresh.update(lineage or {})
        versions = self.store.put(
            name, sample, table_name=params["table_name"], lineage=fresh,
            window=window,
        )
        self.store.prune(name, keep=self.keep_versions)
        self._scatter("reload", [{"name": name}] * self.num_shards)
        return BuildReport(
            name=name,
            version=_join_versions(versions),
            rows=sample.num_rows,
            strata=sample.allocation.num_strata,
            budget=sample.budget,
            source_rows=sample.source_rows,
            columns=list(value_columns),
        )

    # ------------------------------------------------------------------
    # serving hooks
    # ------------------------------------------------------------------
    def _materialize_slide(
        self, base: str, family: Dict, starts: Sequence[int]
    ) -> None:
        """Register a routable slide stand-in: the covered members'
        merged-across-shards allocations, merged again across windows.
        No rows move; :meth:`_answer` scatters partials once per
        member."""
        slide = base + SLIDE_SUFFIX
        signature = self._slide_signature(slide, family, starts)
        if signature is None:
            return
        members = [window_sample_name(base, s) for s in starts]
        with self._lock.read():
            infos = [self._meta.get(m) for m in members]
        if any(info is None for info in infos):
            return  # member mid-publish; next query retries
        allocation = merge_window_allocations(
            [info["allocation"] for info in infos]
        )
        width = family["width"]
        window_block = {
            "column": family["column"],
            "start": int(starts[0]),
            "end": int(starts[-1]) + width,
        }
        lineage = _merge_lineages([info["lineage"] for info in infos])
        lineage["action"] = "window-merge"
        lineage["window"] = dict(window_block)
        lineage["windows"] = [int(s) for s in starts]
        info = {
            "table_name": family["table_name"],
            "allocation": allocation,
            "versions": [info["version"] for info in infos],
            "version": "+".join(info["version"] for info in infos),
            "lineage": lineage,
            "window": window_block,
            "method": infos[0]["method"],
            "rows": sum(i["rows"] for i in infos),
            "source_rows": sum(i["source_rows"] for i in infos),
            "budget": sum(i["budget"] for i in infos),
            "members": members,
        }
        with self._lock.write():
            self._session.register_sample(
                slide,
                _StandIn(info),
                family["table_name"],
                replace=True,
                window=window_block,
            )
            self._meta[slide] = info
            self._versions[slide] = info["version"]
            self._lineages[slide] = lineage
            self._slides[slide] = signature
            self._bump()

    def _exact(
        self, sql: str, route: Optional[RouteDecision] = None,
        start: Optional[float] = None,
    ) -> AQPResult:
        """Exact execution at the front; with ``route`` the result
        carries that decision and is timed from ``start``."""
        with self._lock.read():
            result = self._session.query(sql, mode="exact")
        if route is None:
            return result
        return AQPResult(
            table=result.table,
            route=route,
            plan_cached=result.plan_cached,
            elapsed_seconds=time.perf_counter() - start,
        )

    def _answer(self, sql: str, mode: str, max_cv: Optional[float] = None):
        """Route at the front, scatter partials to every shard, merge.

        Exact when ``mode`` asks for it, when the router picks no
        sample, when the query does not decompose into per-shard
        partials, or (outside ``approx`` mode) when a shard fails.
        """
        start = time.perf_counter()
        if mode == "exact":
            return self._exact(sql), None
        with _TRACER.span("aqp.parse"):
            parsed = parse_query(sql)
            dq = decompose(parsed)
        if dq is None:
            # MEDIAN / HAVING / joins / subqueries: no per-shard
            # partials exist. The front has no sample rows either, so
            # approximation is off the table — unlike the unsharded
            # service, which could still run such a query over its
            # local sample.
            if mode == "approx":
                raise QueryExecutionError(
                    "cannot answer approximately on a sharded warehouse: "
                    "query does not decompose into per-shard partials"
                )
            _SHARD_FALLBACK.inc(reason="non_decomposable")
            route = RouteDecision(
                None, None, None,
                "query does not decompose into per-shard partials; "
                "executing exactly",
            )
            return self._exact(sql, route, start), None
        with self._lock.read():
            with _TRACER.span("aqp.route"):
                route = self._session.route(parsed, mode, max_cv)
            snapshot = self._snapshot(route)
            # A slide stand-in has no rows anywhere; fan out once per
            # covered window member instead. Partials merge exactly
            # across shards *and* windows (disjoint rows either way),
            # so one merge over the whole response set is exact.
            fanout_names = self._meta.get(route.sample_name, {}).get(
                "members", [route.sample_name]
            )
        _TRACER.annotate(route=route.reason, sample=route.sample_name)
        if not route.approximate:
            return self._exact(sql, route, start), None
        trace_id = current_trace_id()
        _TRACER.annotate(
            shard_fanout=self.num_shards * len(fanout_names)
        )
        try:
            responses = []
            for member in fanout_names:
                responses.extend(
                    self._scatter(
                        "partials",
                        [
                            {
                                "sql": sql,
                                "name": member,
                                "trace_id": trace_id,
                            }
                        ] * self.num_shards,
                    )
                )
        except ShardWorkerError as exc:
            if mode == "approx":
                raise
            _SHARD_FALLBACK.inc(reason="worker_error")
            route = RouteDecision(
                None, None, None,
                f"shard fan-out failed ({exc}); executing exactly",
            )
            return self._exact(sql, route, start), None
        if trace_id is not None:
            _TRACER.graft(
                [s for r in responses for s in r.get("spans", [])]
            )
        with _TRACER.span("shard.merge", shards=self.num_shards):
            merged = merge_partials(
                [r["partials"] for r in responses], len(dq.agg_calls)
            )
            table = finalize_partials(dq, merged)
        result = AQPResult(
            table=table,
            route=route,
            plan_cached=False,
            elapsed_seconds=time.perf_counter() - start,
        )
        return result, snapshot

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def sample_summaries(self) -> List[Dict]:
        summaries = super().sample_summaries()
        for summary in summaries:
            summary["shards"] = self.num_shards
        return summaries

    def health(self) -> Dict:
        health = super().health()
        health["shards"] = {
            "count": self.num_shards,
            "alive": sum(1 for c in self.clients if c.alive),
        }
        return health

    def stats(self) -> Dict:
        """Front counters plus a per-shard block gathered from every
        worker (each entry is that worker's full ``stats()`` snapshot —
        store accounting, caches, served versions)."""
        shard_stats = []
        for client in self.clients:
            try:
                shard_stats.append(client.request("stats")["stats"])
            except ShardWorkerError as exc:
                shard_stats.append(
                    {"shard": client.shard_index, "error": str(exc)}
                )
        with self._lock.read():
            stats = self._serving_stats()
            stats["store"] = {
                "root": str(self.store.root),
                "shards": {"count": self.num_shards, "scheme": SHARD_SCHEME},
            }
            stats["samples"] = {
                name: {
                    "version": info["version"],
                    "versions": list(info["versions"]),
                    "rows": info["rows"],
                    "strata": info["allocation"].num_strata,
                    "by": list(info["allocation"].by),
                    "staleness": staleness_from_lineage(info["lineage"]),
                    "needs_rebuild": bool(
                        info["lineage"].get("needs_rebuild", False)
                    ),
                }
                for name, info in self._meta.items()
            }
            stats["shards"] = shard_stats
            return stats

    def close(self) -> None:
        """Shut down every worker and the fan-out pool."""
        for client in self.clients:
            try:
                client.close()
            except Exception:
                pass
        self._pool.shutdown(wait=False)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ----------------------------------------------------------------------
# merge helpers
# ----------------------------------------------------------------------
def _build_params(
    table_name: Optional[str],
    group_by: Sequence[str],
    value_columns: Sequence[str],
    budget: int,
) -> Dict:
    """What a central build needs besides the rows — the same keys a
    windowed family records, so a family doubles as its members'
    build parameters."""
    value_columns = list(dict.fromkeys(value_columns))
    if not value_columns:
        raise ValueError("need at least one value column")
    return {
        "table_name": table_name,
        "group_by": list(group_by),
        "value_columns": value_columns,
        "budget": int(budget),
    }


def _join_versions(versions: Sequence[str]) -> str:
    """One display string for N per-shard versions: the common version
    when they agree (the usual case after a build/rebuild), else an
    explicit per-shard list."""
    unique = list(dict.fromkeys(versions))
    if len(unique) == 1:
        return unique[0]
    return "|".join(
        f"shard{i:02d}={v}" for i, v in enumerate(versions)
    )


def _merge_lineages(lineages: Sequence[Dict]) -> Dict:
    """Whole-warehouse lineage from per-shard lineages.

    Counters add (each shard ingested its disjoint rows of every
    batch), drift takes the worst shard (the contract must not promise
    better than the worst slice), and ``needs_rebuild`` is sticky if
    any shard raised it."""
    merged: Dict = dict(lineages[0]) if lineages else {}
    rows_ingested = sum(
        int(li.get("rows_ingested", 0)) for li in lineages
    )
    base_rows = sum(int(li.get("base_rows", 0)) for li in lineages)
    merged["rows_ingested"] = rows_ingested
    merged["base_rows"] = base_rows
    merged["staleness"] = (
        rows_ingested / base_rows if base_rows else 0.0
    )
    merged["drift"] = max(
        (float(li.get("drift", 1.0)) for li in lineages), default=1.0
    )
    drift_by_column: Dict[str, float] = {}
    for li in lineages:
        for column, drift in (li.get("drift_by_column") or {}).items():
            drift_by_column[column] = max(
                drift_by_column.get(column, 1.0), float(drift)
            )
    merged["drift_by_column"] = drift_by_column
    merged["needs_rebuild"] = any(
        bool(li.get("needs_rebuild", False)) for li in lineages
    )
    merged["refresh_count"] = max(
        (int(li.get("refresh_count", 0)) for li in lineages), default=0
    )
    # Windowed members: the newest covered event is the max over the
    # merged parts (shards see disjoint slices of each batch).
    event_ts = [
        int(li["max_event_ts"])
        for li in lineages
        if li.get("max_event_ts") is not None
    ]
    if event_ts:
        merged["max_event_ts"] = max(event_ts)
    columns: Dict[str, None] = {}
    for li in lineages:
        for column in li.get("value_columns") or []:
            columns.setdefault(column, None)
    if columns:
        merged["value_columns"] = list(columns)
    return merged


def _merge_reports(
    name: str, reports: Sequence[Optional[RefreshReport]], info: Dict
) -> RefreshReport:
    """One warehouse-level report from the per-shard refresh reports
    (``None`` for shards whose batch slice was empty)."""
    done = [r for r in reports if r is not None]
    versions = [
        r.version if r is not None else v
        for r, v in zip(reports, info["versions"])
    ]
    rows_ingested = sum(r.rows_ingested for r in done)
    columns: Dict[str, None] = {}
    for r in done:
        for c in r.columns:
            columns.setdefault(c, None)
    drift = max((r.drift for r in done), default=1.0)
    lineage = info["lineage"]
    prior_ingested = int(lineage.get("rows_ingested", 0))
    base_rows = int(lineage.get("base_rows", 0))
    staleness = (
        (prior_ingested + rows_ingested) / base_rows
        if base_rows
        else float("inf")
    )
    return RefreshReport(
        name=name,
        version=_join_versions(versions),
        action="incremental",
        rows_ingested=rows_ingested,
        # Shards with an empty slice keep their prior population, so
        # the covered total is simply prior + newly ingested rows.
        source_rows=info["source_rows"] + rows_ingested,
        sample_rows=sum(r.sample_rows for r in done),
        new_strata=sum(r.new_strata for r in done),
        staleness=staleness,
        drift=drift,
        needs_rebuild=any(r.needs_rebuild for r in done),
        columns=list(columns),
        drift_by_column={
            c: max(
                (r.drift_by_column.get(c, 1.0) for r in done),
                default=1.0,
            )
            for c in columns
        },
    )
