"""AQP session: sample-aware query routing over the planner pipeline.

An :class:`AQPSession` owns base tables and a catalog of materialized
:class:`~repro.core.sample.StratifiedSample` objects, and answers exact
SQL strings approximately by:

1. **routing** the query to the best stored sample — a sample qualifies
   when its stratification attributes cover the query's group-by
   attributes (paper Section 6: any coarsening of the finest
   stratification is answerable); among qualifying samples the router
   picks the one with the lowest *predicted* estimate CV for the
   columns the query actually aggregates, computed from each sample's
   persisted per-column moments and the CV math in
   :mod:`repro.aqp.planning`. When the caller states a ``max_cv``
   constraint the routing is **contract-aware**: a sample whose
   worst per-group predicted CV on the queried columns satisfies the
   constraint is preferred over the globally-lowest-CV sample, so a
   satisfiable request is served approximately instead of falling back
   to exact execution;
2. **rewriting** the plan: base-table scans are redirected to the
   sample's rows and every aggregate becomes its weighted
   Horvitz-Thompson estimator (:func:`repro.engine.sql.planner.apply_weighting`);
3. **memoizing** compiled plans keyed by normalized query *shape*
   (literals parameterized out), so repeated query shapes skip parsing
   analysis, routing, lowering, and rewriting, and exact repeats skip
   compilation too.

Queries no sample can serve (no grouping coverage, no aggregation to
reweight, or joins of two samples) fall back to exact execution over the
base tables — same pipeline, no weighting.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.sample import STRATUM_COLUMN, WEIGHT_COLUMN, StratifiedSample
from ..engine.expr import ColumnRef, collect_agg_calls, collect_column_refs
from ..engine.sql.ast import (
    JoinClause,
    NamedTable,
    SelectQuery,
    SubqueryTable,
)
from ..engine.sql.errors import QueryExecutionError
from ..engine.sql.operators import PhysicalPlan, compile_plan
from ..engine.sql.parser import parse_query
from ..engine.sql.planner import (
    apply_weighting,
    bind_plan,
    extract_time_bounds,
    lower_query,
    parameterize_query,
    plan_column_refs,
    rename_tables,
)
from ..engine.groupcache import default_group_code_cache
from ..engine.statistics import ColumnStats
from ..engine.table import Table
from ..obs import current_trace_id, default_registry, default_tracer
from .catalog import SampleCatalog
from .planning import predict_group_cvs

__all__ = [
    "AQPSession",
    "AQPResult",
    "RouteDecision",
    "predict_allocation_cvs",
]

#: Catalog prefix for sample tables injected by the router, chosen so it
#: can never collide with a user table or CTE name from the dialect.
_SAMPLE_PREFIX = "__sample__:"

#: Predicted-CV stand-in for groups a sample cannot estimate (empty
#: strata) — large enough to lose every comparison, finite so a sample
#: with one dead stratum still beats having no sample at all.
_DEAD_GROUP_CV = 10.0

#: Cap on compiled plans kept per query shape (one per literal tuple);
#: rebinding is cheap, unbounded growth on literal-varying dashboards
#: is not.
_MAX_BOUND_PLANS = 64

#: Cap on cached query shapes. The cache key includes the caller's
#: max_cv constraint, which HTTP clients control — without a bound a
#: caller varying max_cv per request would grow the dict forever.
_MAX_CACHED_SHAPES = 256

#: Process-wide serial for base-table cache tokens: every registration
#: is a new token, so cached group codes of a replaced table (a
#: refresh's grown table, say) can never be served again, and two
#: sessions in one process (in-process shard workers) never share one.
_TABLE_SERIAL = itertools.count()

_TRACER = default_tracer()
_PLAN_CACHE = default_registry().counter(
    "repro_plan_cache_total",
    "Shape-keyed plan-cache lookups by result",
    ["result"],
)


def _shape_key(shape) -> str:
    """Stable short digest of a parameterized query shape, for traces
    and the query log (computed only when a trace is active)."""
    import hashlib

    return hashlib.blake2b(
        repr(shape).encode("utf-8"), digest_size=8
    ).hexdigest()


@dataclass(frozen=True)
class RouteDecision:
    """Where the router sent a query and why.

    ``predicted_cv`` is the routing score — the mean a-priori estimate
    CV over the chosen sample's strata and the query's aggregate
    columns; ``group_cvs`` is the same prediction *per stratum*
    (aligned with the sample's ``allocation.keys``), surfaced so the
    serving layer can embed per-group accuracy contracts in responses.
    Both are ``None`` for exact execution. ``cv_columns`` names the
    aggregate columns whose statistics actually drove the prediction —
    the columns the contract covers.
    """

    sample_name: Optional[str]  # None = exact execution
    table_name: Optional[str]  # base table the sample stands in for
    predicted_cv: Optional[float]  # routing score of the chosen sample
    reason: str
    group_cvs: Optional[Tuple[float, ...]] = None  # per-stratum CVs
    cv_columns: Optional[Tuple[str, ...]] = None  # columns predicted from
    #: Half-open event-time coverage ``[start, end)`` of the chosen
    #: sample when it is time-windowed (None otherwise).
    window_bounds: Optional[Tuple[int, int]] = None

    @property
    def approximate(self) -> bool:
        return self.sample_name is not None

    @property
    def max_group_cv(self) -> Optional[float]:
        """Worst per-stratum predicted CV (None for exact routes)."""
        if not self.group_cvs:
            return self.predicted_cv
        return max(self.group_cvs)


@dataclass
class AQPResult:
    """Answer plus routing/caching provenance."""

    table: Table
    route: RouteDecision
    plan_cached: bool
    elapsed_seconds: float

    @property
    def approximate(self) -> bool:
        return self.route.approximate

    @property
    def sample_name(self) -> Optional[str]:
        return self.route.sample_name


@dataclass
class _CachedShape:
    """One plan-cache entry: a parameterized plan plus its routing.

    ``columns`` is the projection pushdown: the set of column names the
    weighted plan can possibly touch on the sample table (group-by keys,
    aggregate arguments, WHERE/HAVING/ORDER BY references, plus the HT
    weight column). Recorded once at plan time and applied on every
    execution, so a lazy (mmap) sample table only ever materializes
    those columns. ``None`` means no projection (exact routes).
    """

    plan: object  # parameterized logical plan (weighted + scan-rewritten)
    route: RouteDecision
    columns: Optional[frozenset] = None
    bound: Dict[tuple, PhysicalPlan] = field(default_factory=dict)


class AQPSession:
    """Stateful query endpoint over base tables and stored samples."""

    def __init__(
        self,
        tables: Optional[Mapping[str, Table]] = None,
        catalog: Optional[SampleCatalog] = None,
    ) -> None:
        self.tables: Dict[str, Table] = {
            name: _stamped(name, table)
            for name, table in (tables or {}).items()
        }
        self.catalog = catalog if catalog is not None else SampleCatalog()
        self._sample_sources: Dict[str, str] = {}  # sample -> base table
        #: Event-time coverage of windowed samples:
        #: ``name -> {"column", "start", "end"}`` (half-open ``[start,
        #: end)``). A windowed sample only answers queries whose WHERE
        #: clause provably stays inside its coverage.
        self._sample_windows: Dict[str, Dict] = {}
        self._shape_cache: Dict[tuple, _CachedShape] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Table) -> None:
        """Register (or replace) base table ``name``.

        Invalidates the compiled-plan cache, since cached plans may
        scan the table being replaced. The session keeps a shallow view
        of ``table`` stamped with a fresh group-code cache token, so
        exact group-bys over it reuse cached group codes. Not
        thread-safe on its own — the warehouse layer serializes
        structural changes behind a write lock.
        """
        self.tables[name] = _stamped(name, table)
        self.clear_plan_cache()

    def register_sample(
        self,
        name: str,
        sample: StratifiedSample,
        table_name: str,
        replace: bool = False,
        window: Optional[Dict] = None,
    ) -> None:
        """Add a materialized sample standing in for ``table_name``.

        ``replace=True`` swaps an already-registered sample in place —
        the warehouse uses this to publish refreshed versions.
        ``window`` (``{"column", "start", "end"}``) declares the sample
        time-windowed: it covers only base rows with ``start <= column
        < end``, is *preferred* for queries whose WHERE clause provably
        stays inside that range, and is ineligible for any other query.

        Raises :class:`KeyError` when ``table_name`` is unknown and
        :class:`ValueError` when ``name`` is already registered without
        ``replace``. Invalidates the compiled-plan cache.
        """
        if table_name not in self.tables:
            raise KeyError(
                f"unknown base table {table_name!r}; "
                f"known: {', '.join(sorted(self.tables)) or '-'}"
            )
        self.catalog.add(name, sample, replace=replace)
        self._sample_sources[name] = table_name
        if window is not None:
            self._sample_windows[name] = {
                "column": str(window["column"]),
                "start": int(window["start"]),
                "end": int(window["end"]),
            }
        else:
            self._sample_windows.pop(name, None)
        self.clear_plan_cache()

    def sample_window(self, name: str) -> Optional[Dict]:
        """Event-time coverage of a windowed sample (``{"column",
        "start", "end"}``), or ``None`` for un-windowed samples."""
        window = self._sample_windows.get(name)
        return dict(window) if window else None

    def drop_sample(self, name: str) -> None:
        """Remove a sample from routing."""
        self.catalog.remove(name)
        self._sample_sources.pop(name, None)
        self._sample_windows.pop(name, None)
        self.clear_plan_cache()

    def build_sample(
        self,
        name: str,
        table_name: str,
        optimize_for: str,
        rate: float = 0.01,
        seed: int = 0,
    ) -> StratifiedSample:
        """Build and register a CVOPT sample optimized for one query."""
        from ..core.cvopt import CVOptSampler
        from ..core.spec import specs_from_sql

        if table_name not in self.tables:
            raise KeyError(f"unknown base table {table_name!r}")
        specs, derived = specs_from_sql(optimize_for)
        sampler = CVOptSampler(specs, derived=derived)
        sample = sampler.sample_rate(self.tables[table_name], rate, seed=seed)
        self.register_sample(name, sample, table_name)
        return sample

    def samples(self) -> list:
        """Names of every registered sample, in catalog order."""
        return self.catalog.names()

    def clear_plan_cache(self) -> None:
        """Drop every compiled plan (routing decisions included) and the
        process-wide group-code cache.

        Called automatically whenever a table or sample changes; safe
        to call at any time — the next query of each shape re-routes,
        re-compiles, and re-factorizes. Clearing the group-code cache
        here is deliberately coarse: the per-version token already
        prevents stale reads after a hot-swap, so this is the
        belt-and-braces layer that also bounds memory across swaps.
        """
        self._shape_cache.clear()
        default_group_code_cache().invalidate()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(
        self, sql: str, mode: str = "auto", max_cv: Optional[float] = None
    ) -> AQPResult:
        """Answer ``sql``, routing to a stored sample when possible.

        ``mode`` is ``"auto"`` (route if a sample qualifies, else
        exact), ``"approx"`` (raise if no sample qualifies), or
        ``"exact"`` (always run on the base tables). ``max_cv`` makes
        the routing contract-aware: among qualifying samples, one whose
        worst per-group predicted CV on the queried columns meets the
        bound is preferred over the globally-lowest-CV sample; when no
        sample meets it the lowest-CV sample is still chosen and the
        caller decides whether to fall back (the session itself never
        rejects on ``max_cv``).
        """
        if mode not in ("auto", "approx", "exact"):
            raise ValueError("mode must be 'auto', 'approx' or 'exact'")
        if max_cv is not None:
            max_cv = float(max_cv)
        start = time.perf_counter()
        with _TRACER.span("aqp.parse"):
            parsed = parse_query(sql)
            shape, literals = parameterize_query(parsed)
        # Literals are parameterized out of the shape, but windowed
        # routing *depends* on the literal time bounds — two queries of
        # one shape can need different window sets. Folding the
        # extracted bounds into the key keeps the cache sound; with no
        # windowed samples registered it contributes nothing.
        key = (shape, mode, max_cv, self._time_bounds_key(parsed))
        entry = self._shape_cache.get(key)
        cached = entry is not None
        if entry is None:
            self.plan_cache_misses += 1
            _PLAN_CACHE.inc(result="miss")
            with _TRACER.span("aqp.plan"):
                entry = self._plan_shape(parsed, shape, mode, max_cv)
            if len(self._shape_cache) >= _MAX_CACHED_SHAPES:
                self._shape_cache.clear()  # re-planning is cheap
            self._shape_cache[key] = entry
        else:
            self.plan_cache_hits += 1
            _PLAN_CACHE.inc(result="hit")
        if current_trace_id() is not None:
            _TRACER.annotate(
                plan_cache="hit" if cached else "miss",
                shape_key=_shape_key(shape),
                route=entry.route.reason,
                sample=entry.route.sample_name,
            )
        # Key bound plans by (type, value) — 1, 1.0 and True hash equal
        # but must not share a plan, or binding would change dtypes.
        bound_key = tuple((type(v), v) for v in literals)
        physical = entry.bound.get(bound_key)
        if physical is None:
            if len(entry.bound) >= _MAX_BOUND_PLANS:
                entry.bound.clear()  # cheap to rebind; don't grow forever
            with _TRACER.span("aqp.compile"):
                physical = compile_plan(bind_plan(entry.plan, literals))
            entry.bound[bound_key] = physical
        with _TRACER.span("aqp.execute"):
            table = physical.run(
                self._execution_catalog(entry.route, entry.columns)
            )
        return AQPResult(
            table=table,
            route=entry.route,
            plan_cached=cached,
            elapsed_seconds=time.perf_counter() - start,
        )

    def execute(self, sql: str) -> Table:
        """Exact execution over the base tables (no sampling)."""
        return self.query(sql, mode="exact").table

    def route(
        self,
        query: SelectQuery,
        mode: str = "auto",
        max_cv: Optional[float] = None,
    ) -> RouteDecision:
        """Routing decision for an already-parsed query, without
        executing it.

        This is the router on its own: the sharded scatter-gather front
        registers metadata-only stand-ins for its samples (merged shard
        allocations under an empty row table) and calls this to pick
        one, so sample selection, CV prediction and ``max_cv``
        preference are byte-identical to the unsharded path. Raises
        :class:`~repro.engine.sql.errors.QueryExecutionError` in
        ``"approx"`` mode when no sample qualifies.
        """
        if mode == "exact":
            return RouteDecision(None, None, None, "exact mode requested")
        return self._route(query, mode, max_cv)

    # ------------------------------------------------------------------
    # planning internals
    # ------------------------------------------------------------------
    def _plan_shape(
        self,
        parsed: SelectQuery,
        shape: SelectQuery,
        mode: str,
        max_cv: Optional[float] = None,
    ) -> _CachedShape:
        # Route on the *parsed* query (literals intact) so predicate
        # columns etc. are visible; cache under the parameterized shape.
        route = (
            RouteDecision(None, None, None, "exact mode requested")
            if mode == "exact"
            else self._route(parsed, mode, max_cv)
        )
        plan = lower_query(shape)
        if route.approximate:
            scan_name = _SAMPLE_PREFIX + route.sample_name
            renamed = rename_tables(plan, {route.table_name: scan_name})
            if _produces_weighted_rows(renamed, scan_name):
                # Some path carries sample rows to the output without an
                # aggregation to consume their weights — the estimate
                # would silently be a row subset, not an answer.
                route = self._fallback(
                    mode,
                    "sampled rows would reach the output unaggregated",
                )
            else:
                plan = apply_weighting(renamed, WEIGHT_COLUMN)
        columns = None
        if route.approximate:
            # Required-column set for projection pushdown: everything
            # the weighted plan references, plus the HT weight column
            # (added by apply_weighting as a plan attribute, not an
            # expression, so the walk alone would miss it).
            columns = plan_column_refs(plan) | {WEIGHT_COLUMN}
        return _CachedShape(plan=plan, route=route, columns=columns)

    def _execution_catalog(
        self, route: RouteDecision, columns: Optional[frozenset] = None
    ) -> dict:
        catalog = dict(self.tables)
        if route.approximate:
            sample = self.catalog.get(route.sample_name)
            table = sample.table
            if columns is not None:
                keep = [c for c in table.column_names if c in columns]
                if len(keep) < len(table.column_names):
                    projected = table.select(keep)
                    # Same immutable rows, shared column buffers — the
                    # group-code cache token stays valid on the
                    # projection.
                    projected.cache_token = table.cache_token
                    table = projected
            catalog[_SAMPLE_PREFIX + route.sample_name] = table
        return catalog

    def _route(
        self,
        query: SelectQuery,
        mode: str,
        max_cv: Optional[float] = None,
    ) -> RouteDecision:
        if not self._sample_sources:
            return self._fallback(mode, "no samples registered")
        if not _has_aggregate(query):
            return self._fallback(
                mode, "query has no aggregation to reweight"
            )
        referenced = _referenced_tables(query)
        needed = _grouping_attributes(query)
        agg_columns = _aggregate_columns(query)

        # (rank, span, score, extra_attrs, name, table_name, group_cvs,
        #  cv_columns, window_bounds) — rank 0 is a windowed sample
        # covering the query's time range (time-matched beats
        # all-of-history: its rows are all in-range, so none of the
        # budget is wasted on rows the WHERE clause discards). Among
        # covering windowed candidates the *tightest* span wins, for
        # the same reason: a wider slide's extra rows are discarded by
        # the WHERE clause, and its contract (predicted CV computed on
        # all merged rows, window_bounds) would describe rows the query
        # never touches — e.g. a stale ``@slide`` left registered by an
        # earlier wider-ranged query must not outrank the exactly-
        # matching member. With no windowed samples every rank is 1,
        # every span 0, and ordering is unchanged.
        best = None  # globally-lowest predicted CV
        best_ok = None  # lowest predicted CV among max_cv-satisfying
        # Data horizon per (base table, timestamp column): the furthest
        # ``end`` any registered window reaches. The warehouse rolls
        # windows forward with every ingest, so no base row is newer
        # than this — which is what makes an *unbounded* ``ts >= X``
        # query answerable by a window that reaches the horizon.
        horizons: Dict[tuple, int] = {}
        for nm, w in self._sample_windows.items():
            k = (self._sample_sources.get(nm), w["column"])
            end = int(w["end"])
            if k not in horizons or end > horizons[k]:
                horizons[k] = end
        for name, table_name in self._sample_sources.items():
            if table_name not in referenced:
                continue
            window = self._sample_windows.get(name)
            rank = 1
            window_bounds = None
            if window is not None:
                bounds = extract_time_bounds(query, window["column"])
                if bounds is None:
                    continue  # all-of-history query; window can't answer
                lo, hi = bounds
                if lo is None or lo < window["start"]:
                    continue  # reaches before coverage
                if hi is None:
                    # Open-ended future: only a window reaching the
                    # data horizon covers it (rows can exist anywhere
                    # up to the horizon, never past it).
                    horizon = horizons[(table_name, window["column"])]
                    if window["end"] < horizon:
                        continue
                elif hi > window["end"]:
                    continue  # reaches past coverage
                rank = 0
                window_bounds = (window["start"], window["end"])
            sample = self.catalog.get(name)
            attrs = set(sample.allocation.by)
            if not needed <= attrs:
                continue
            score, group_cvs, cv_columns = self._predict_cvs(
                sample, agg_columns
            )
            extra = len(attrs - needed)
            span = (
                window_bounds[1] - window_bounds[0]
                if window_bounds is not None
                else 0
            )
            candidate = (
                rank, span, score, extra, name, table_name, group_cvs,
                cv_columns, window_bounds,
            )
            if best is None or candidate[:4] < best[:4]:
                best = candidate
            if max_cv is not None:
                worst = float(max(group_cvs)) if len(group_cvs) else 0.0
                if worst <= max_cv and (
                    best_ok is None or candidate[:4] < best_ok[:4]
                ):
                    best_ok = candidate
        if best is None:
            return self._fallback(
                mode,
                "no stored sample stratifies a superset of the query's "
                "group-by attributes",
            )
        # Contract-aware preference: a sample that *meets* the caller's
        # max_cv on the queried columns beats the globally-lowest-CV
        # sample that would violate it.
        contract_note = ""
        if best_ok is not None and best_ok[4] != best[4]:
            contract_note = (
                f", preferred over {best[4]!r} (CV {best[2]:.4f}) because "
                f"its per-group CV meets max_cv {max_cv:.4f}"
            )
            best = best_ok
        elif best_ok is not None:
            contract_note = f", meets max_cv {max_cv:.4f}"
        (
            _, _, score, _, name, table_name, group_cvs, cv_columns,
            window_bounds,
        ) = best
        columns_note = (
            f" on column(s) {', '.join(cv_columns)}" if cv_columns else ""
        )
        window_note = (
            f", windowed [{window_bounds[0]}, {window_bounds[1]})"
            if window_bounds is not None
            else ""
        )
        return RouteDecision(
            sample_name=name,
            table_name=table_name,
            predicted_cv=score,
            reason=f"sample {name!r} covers grouping {sorted(needed) or '*'} "
            f"with predicted CV {score:.4f}{columns_note}{window_note}"
            f"{contract_note}",
            group_cvs=tuple(float(v) for v in group_cvs),
            cv_columns=tuple(cv_columns),
            window_bounds=window_bounds,
        )

    def _time_bounds_key(self, parsed: SelectQuery) -> tuple:
        """Hashable per-query time bounds over every windowed column.

        Empty (and free) while no windowed samples are registered.
        """
        if not self._sample_windows:
            return ()
        columns = sorted(
            {w["column"] for w in self._sample_windows.values()}
        )
        return tuple(
            (column, extract_time_bounds(parsed, column))
            for column in columns
        )

    def _fallback(self, mode: str, reason: str) -> RouteDecision:
        if mode == "approx":
            raise QueryExecutionError(
                f"cannot answer approximately: {reason}"
            )
        return RouteDecision(None, None, None, reason + "; executing exactly")

    def _predict_cvs(
        self, sample: StratifiedSample, agg_columns
    ) -> Tuple[float, np.ndarray, Tuple[str, ...]]:
        """Routing score plus per-stratum predicted CVs.

        Returns ``(score, group_cvs, cv_columns)`` where ``group_cvs``
        has one entry per stratum of ``sample`` (aligned with
        ``sample.allocation.keys``, averaged elementwise over the
        query's aggregate columns), ``score`` is its mean — the number
        the router ranks candidates by — and ``cv_columns`` names the
        aggregate columns whose statistics the prediction covers. Uses
        the a-priori CV prediction of :mod:`repro.aqp.planning` with
        per-stratum data CVs taken from the sample's persisted pass-1
        moments for the *queried* column when available (exact over the
        full population, kept exact by maintenance), falling back to
        CVs measured on the sample's own rows. Strata the sample cannot
        estimate (no rows) contribute the finite ``_DEAD_GROUP_CV``
        sentinel rather than ``inf``.
        """
        return predict_allocation_cvs(
            sample.allocation,
            agg_columns,
            lambda column: _column_data_cvs(sample, column),
        )


def _stamped(name: str, table: Table) -> Table:
    """A shallow view of ``table`` (shared column buffers) carrying a
    unique group-code cache token; the caller's object is untouched."""
    view = table.select(table.column_names)
    view.cache_token = ("table", name, next(_TABLE_SERIAL))
    return view


def predict_allocation_cvs(
    allocation, agg_columns, data_cvs_for
) -> Tuple[float, np.ndarray, Tuple[str, ...]]:
    """Core of the routing-score prediction, shared with the sharded
    scatter-gather front (which computes it over *merged* shard
    allocations — single-sourced here so the two paths cannot
    disagree). ``data_cvs_for(column)`` returns the per-stratum data
    CVs of one column, or ``None`` when it has no statistics.
    """
    per_group = []
    covered = []
    for column in agg_columns:
        data_cvs = data_cvs_for(column)
        if data_cvs is None:
            continue
        cvs = predict_group_cvs(
            allocation.populations, data_cvs, allocation.sizes
        )
        per_group.append(
            np.where(np.isfinite(cvs), cvs, _DEAD_GROUP_CV)
        )
        covered.append(column)
    if not per_group:
        # COUNT(*)-style queries: the estimate CV is driven purely by
        # the sampling fractions.
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = np.where(
                allocation.populations > 0,
                allocation.sizes / np.maximum(allocation.populations, 1),
                1.0,
            )
        group_cvs = 1.0 - fraction
        score = float(group_cvs.mean()) if len(group_cvs) else 0.0
        return score, group_cvs, ()
    group_cvs = np.mean(per_group, axis=0)
    score = float(group_cvs.mean()) if len(group_cvs) else 0.0
    return score, group_cvs, tuple(covered)


# ----------------------------------------------------------------------
# query-shape analysis helpers
# ----------------------------------------------------------------------
def _walk_blocks(query: SelectQuery):
    """Yield every SELECT block in the query tree."""
    yield query
    for _, cte in query.ctes:
        yield from _walk_blocks(cte)
    stack = [query.from_clause]
    while stack:
        ref = stack.pop()
        if ref is None:
            continue
        if isinstance(ref, SubqueryTable):
            yield from _walk_blocks(ref.query)
        elif isinstance(ref, JoinClause):
            stack.append(ref.left)
            stack.append(ref.right)


def _has_aggregate(query: SelectQuery) -> bool:
    return any(block.is_aggregate for block in _walk_blocks(query))


def _referenced_tables(query: SelectQuery) -> set:
    """Base-table names scanned anywhere in the query (minus CTE names)."""
    names: set = set()
    cte_names: set = set()
    for block in _walk_blocks(query):
        cte_names.update(name for name, _ in block.ctes)
        stack = [block.from_clause]
        while stack:
            ref = stack.pop()
            if ref is None:
                continue
            if isinstance(ref, NamedTable):
                names.add(ref.name)
            elif isinstance(ref, JoinClause):
                stack.append(ref.left)
                stack.append(ref.right)
    return names - cte_names


def _grouping_attributes(query: SelectQuery) -> set:
    """All group-by attributes across the query's blocks.

    Computed keys contribute the columns they reference (same rule as
    sample construction in :func:`repro.core.spec.specs_from_sql`);
    aliases are resolved through each block's SELECT list.
    """
    needed: set = set()
    for block in _walk_blocks(query):
        alias_map = {
            item.alias: item.expr for item in block.items if item.alias
        }
        for expr in block.group_by:
            if isinstance(expr, ColumnRef) and expr.name in alias_map:
                expr = alias_map[expr.name]
            if isinstance(expr, ColumnRef):
                needed.add(expr.name.split(".")[-1])
            else:
                needed.update(
                    ref.name.split(".")[-1]
                    for ref in collect_column_refs(expr)
                )
    return needed


def _aggregate_columns(query: SelectQuery) -> Tuple[str, ...]:
    """Plain columns aggregated anywhere in the query, deduplicated."""
    columns = []
    for block in _walk_blocks(query):
        for item in block.items:
            for call in collect_agg_calls(item.expr):
                if isinstance(call.arg, ColumnRef):
                    columns.append(call.arg.name.split(".")[-1])
    return tuple(dict.fromkeys(columns))


def _produces_weighted_rows(plan, sample_scan: str, env=None) -> bool:
    """Whether ``plan``'s output rows can still carry sample weights.

    Mirrors the weighting rewrite's dataflow: scans of the sample
    introduce weighted rows, projections/filters/joins/CTEs pass them
    through, and aggregation consumes them. A plan whose root is still
    weighted would emit raw sample rows as if they were an answer, so
    the router must refuse it.
    """
    from ..engine.sql import planner as lp

    env = env or {}
    if isinstance(plan, lp.Scan):
        if plan.table == sample_scan:
            return True
        return env.get(plan.table, False)
    if isinstance(plan, lp.Dual):
        return False
    if isinstance(plan, lp.SubqueryScan):
        return _produces_weighted_rows(plan.plan, sample_scan, env)
    if isinstance(plan, lp.Join):
        return _produces_weighted_rows(
            plan.left, sample_scan, env
        ) or _produces_weighted_rows(plan.right, sample_scan, env)
    if isinstance(plan, (lp.Filter, lp.Project, lp.OrderBy, lp.Limit)):
        return _produces_weighted_rows(plan.child, sample_scan, env)
    if isinstance(plan, (lp.GroupAggregate, lp.CubeAggregate)):
        return False  # aggregation consumes the weights
    if isinstance(plan, lp.WithCTE):
        extended = dict(env)
        extended[plan.name] = _produces_weighted_rows(
            plan.definition, sample_scan, env
        )
        return _produces_weighted_rows(plan.body, sample_scan, extended)
    raise TypeError(f"unknown plan node {type(plan).__name__}")


def _column_data_cvs(
    sample: StratifiedSample, column: str
) -> Optional[np.ndarray]:
    """Per-stratum data CVs of ``column``, preferring exact moments.

    A warehouse sample carries per-column pass-1 moments in its
    allocation statistics (aligned with ``allocation.keys``) — exact
    over the full population and kept exact across refreshes — so CV
    predictions for the queried column come from *that column's*
    moments, not from whichever column the sample happened to be
    re-balanced on. Samples without persisted moments for the column
    fall back to measuring on their own rows.
    """
    stats = sample.allocation.stats
    if stats is not None and column in stats.columns:
        return np.nan_to_num(
            stats.stats_for(column).cv(mean_floor=1e-9)
        )
    return _sample_data_cvs(sample, column)


def _sample_data_cvs(
    sample: StratifiedSample, column: str
) -> Optional[np.ndarray]:
    """Per-stratum |sigma/mu| of ``column`` measured on the sample rows."""
    table = sample.table
    if column not in table or STRATUM_COLUMN not in table:
        return None
    col = table.column(column)
    try:
        values = col.values_numeric().astype(np.float64)
    except TypeError:
        return None
    gids = table.column(STRATUM_COLUMN).data.astype(np.int64)
    cs = ColumnStats.from_values(
        values, gids, sample.allocation.num_strata
    )
    mean = np.abs(cs.mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.where(mean > 0, cs.std / mean, 0.0)
    return np.nan_to_num(cv)
