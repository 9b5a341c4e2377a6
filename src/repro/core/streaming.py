"""Streaming CVOPT (paper Section 8, future-work avenue 3).

The offline algorithm takes two passes: statistics, then the draw. On a
stream neither pass can be repeated, so this module implements a
*pilot + shrink* design (in the spirit of the authors' companion work
on stratified sampling over streams, Nguyen et al., EDBT 2019 [17]):

* **Pilot phase** (the first ``pilot_fraction`` of an expected stream
  length, or an explicit row count): every stratum runs one Welford
  accumulator *per tracked value column* and an over-provisioned
  uniform reservoir (``headroom`` times its fair share of the budget).
* **Re-balance** at the pilot boundary: CVOPT's box-constrained
  allocation is computed from the pilot statistics of **every tracked
  column** (squared data CVs summed per stratum, the Theorem-2
  multi-column objective of :func:`~repro.core.allocation.multi_column_alphas`),
  with each stratum's *current reservoir capacity* as the upper bound. Capacities only **shrink** — shrinking a
  reservoir (uniform subsample, then continue Algorithm R with the
  smaller capacity) preserves exact per-stratum uniformity, whereas
  growing one would bias toward late items.
* **Tail phase**: re-balancing repeats on a doubling schedule (at
  ``pilot_rows``, ``2 * pilot_rows``, ``4 * pilot_rows``, ...) and once
  more at :meth:`finalize`, so strata that first appear late in the
  stream (e.g. clustered input) are folded into the allocation; every
  re-balance is shrink-only, and the budget bound is enforced at each
  one. Statistics keep accumulating so the final Horvitz-Thompson
  weights use exact stream counts.

A sample is typically built to serve *several* aggregate columns, so
the sampler tracks exact per-stratum moments for **every** column in
``value_columns`` (one Welford state each) and emits them all from
:meth:`statistics` — and the re-balance decision combines all of them,
so secondary columns drift no more than the primary between
refreshes. Downstream, the warehouse persists the whole
per-column block so accuracy contracts can predict CVs for whichever
column a query actually aggregates.

The price of one pass is that the allocation is computed from pilot
estimates and capped by the pilot's headroom; accuracy approaches the
two-pass optimum as the pilot grows (tested in
``tests/core/test_streaming.py``).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple, Union

import numpy as np

from ..engine.reservoir import Reservoir
from ..engine.schema import DType
from ..engine.statistics import (
    ColumnStats,
    StrataStatistics,
    WelfordAccumulator,
)
from ..engine.table import Column, Table
from .allocation import box_constrained_allocation, integerize
from .sample import STRATUM_COLUMN, WEIGHT_COLUMN, Allocation, StratifiedSample

__all__ = ["StreamingCVOptSampler"]

#: Either one column name or an ordered collection of them.
Columns = Union[str, Sequence[str]]


def _as_columns(value_columns: Columns) -> Tuple[str, ...]:
    if isinstance(value_columns, str):
        return (value_columns,)
    columns = tuple(dict.fromkeys(value_columns))  # dedupe, keep order
    return columns


class _StratumState:
    __slots__ = ("stats", "reservoir", "seen")

    def __init__(
        self,
        columns: Tuple[str, ...],
        capacity: int,
        rng: np.random.Generator,
    ) -> None:
        self.stats: Dict[str, WelfordAccumulator] = {
            column: WelfordAccumulator() for column in columns
        }
        self.reservoir = Reservoir(capacity, rng)
        self.seen = 0


class StreamingCVOptSampler:
    """One-pass CVOPT over a stream of records.

    Parameters
    ----------
    group_by:
        Attribute names forming the stratification key.
    value_columns:
        The aggregation column(s) whose per-stratum moments are
        tracked — a single name or an ordered sequence. Every column
        gets its own Welford state per stratum and appears in
        :meth:`statistics`.
    budget:
        Total rows to retain.
    pilot_rows:
        Stream position at which the allocation is re-balanced.
    headroom:
        Over-provisioning factor for pilot reservoir capacities: each
        newly seen stratum starts with ``headroom * budget /
        max(#strata, 1)`` slots (at least 1).
    primary_column:
        Label for the sample's headline column (default: the first of
        ``value_columns``); re-balancing itself optimizes the combined
        multi-column objective. Must be one of ``value_columns``.
    decay:
        Optional exponential decay in ``(0, 1]`` for recent-biased
        allocation: each :meth:`decay_step` call (issued by the caller
        at its time-window boundaries) scales every stratum's Welford
        mass by this factor, so old data steers re-balancing with
        ``decay**age`` of its original weight. Per-stratum means and
        CVs are unaffected (uniform scaling); reservoir contents,
        populations and Horvitz-Thompson weights stay exact.
    """

    def __init__(
        self,
        group_by: Sequence[str],
        value_columns: Columns,
        budget: int,
        pilot_rows: int,
        headroom: float = 2.0,
        mean_floor: float = 1e-9,
        seed: int | np.random.Generator = 0,
        primary_column: str | None = None,
        decay: float | None = None,
    ) -> None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        if pilot_rows <= 0:
            raise ValueError("pilot_rows must be positive")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        self.group_by = tuple(group_by)
        self.value_columns = _as_columns(value_columns)
        if not self.value_columns:
            raise ValueError("need at least one value column")
        self.primary_column = primary_column or self.value_columns[0]
        if self.primary_column not in self.value_columns:
            raise ValueError(
                f"primary column {self.primary_column!r} is not tracked; "
                f"tracked: {', '.join(self.value_columns)}"
            )
        self.budget = int(budget)
        self.pilot_rows = int(pilot_rows)
        self.headroom = float(headroom)
        self.mean_floor = float(mean_floor)
        if decay is not None and not 0.0 < float(decay) <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.decay = float(decay) if decay is not None else None
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self._strata: Dict[Tuple, _StratumState] = {}
        self._rows_seen = 0
        self._rebalanced = False
        self._next_rebalance = self.pilot_rows
        #: Logical dtype per observed column. Reservoir records are
        #: plain python values; without this the finalized table would
        #: re-infer dtypes and silently downgrade e.g. TIMESTAMP (epoch
        #: ints) to INT64 — breaking schema-sensitive consumers such as
        #: the sliding-window merge, which concats member tables.
        self._column_dtypes: Dict[str, DType] = {}

    @property
    def value_column(self) -> str:
        """Backward-compatible alias: the primary (re-balance) column."""
        return self.primary_column

    # ------------------------------------------------------------------
    # warm start (incremental maintenance)
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        sample: StratifiedSample,
        value_columns: Columns,
        statistics: StrataStatistics | None = None,
        headroom: float = 2.0,
        mean_floor: float = 1e-9,
        seed: int | np.random.Generator = 0,
        primary_column: str | None = None,
        decay: float | None = None,
    ) -> "StreamingCVOptSampler":
        """Warm-start a streaming sampler from a materialized sample.

        Within stratum ``c`` the existing sample is an SRS of size
        ``s_c`` from ``n_c`` rows — exactly the state of Algorithm R
        after ``n_c`` offers — so seeding each reservoir with the stored
        rows and ``seen = n_c`` and continuing the stream yields a valid
        SRS over the *extended* population. Re-balancing stays
        shrink-only: a stratum's capacity starts at its current size.

        ``statistics`` supplies exact per-stratum moments of the
        tracked columns over the full population (pass-1 output,
        persisted by the warehouse). Each tracked column whose moments
        are present is restored exactly; a column absent from the
        statistics is estimated from the sample rows, scaled to the
        stratum population — good enough to drive the allocation, and
        replaced by exact moments at the next full rebuild.
        """
        stats = statistics if statistics is not None else sample.allocation.stats
        allocation = sample.allocation
        sampler = cls(
            group_by=allocation.by,
            value_columns=value_columns,
            budget=sample.budget,
            pilot_rows=max(1, sample.source_rows),
            headroom=headroom,
            mean_floor=mean_floor,
            seed=seed,
            primary_column=primary_column,
            decay=decay,
        )
        table = sample.table
        gids = (
            table.column(STRATUM_COLUMN).data.astype(np.int64)
            if STRATUM_COLUMN in table
            else np.zeros(table.num_rows, dtype=np.int64)
        )
        payload = table.without_columns([WEIGHT_COLUMN, STRATUM_COLUMN])
        sampler._note_dtypes(payload)
        decoded = {n: payload.column(n).decode() for n in payload.column_names}
        rows_by_stratum: Dict[int, list] = {}
        for i in range(payload.num_rows):
            rows_by_stratum.setdefault(int(gids[i]), []).append(
                {n: decoded[n][i] for n in payload.column_names}
            )
        col_stats: Dict[str, ColumnStats | None] = {
            column: (
                stats.stats_for(column)
                if stats is not None and column in stats.columns
                else None
            )
            for column in sampler.value_columns
        }
        for idx, key in enumerate(allocation.keys):
            population = int(allocation.populations[idx])
            items = rows_by_stratum.get(idx, [])
            state = _StratumState(
                sampler.value_columns, len(items), sampler._rng
            )
            state.reservoir._items = items
            state.reservoir._seen = population
            state.seen = population
            for column, cs in col_stats.items():
                acc = state.stats[column]
                if cs is not None:  # persisted moments are Welford state
                    acc.count = population
                    acc.mean = float(cs.total[idx]) / max(population, 1)
                    acc.m2 = float(cs.m2[idx])
                else:
                    for row in items:
                        acc.add(float(row[column]))
                    # Scale sample moments to the population so the CV
                    # math weighs this stratum like pass-1 statistics
                    # would.
                    if items:
                        factor = population / len(items)
                        acc.count = population
                        acc.m2 *= factor
            sampler._strata[tuple(key)] = state
        sampler._rows_seen = sample.source_rows
        sampler._rebalanced = True
        sampler._next_rebalance = max(2 * sample.source_rows, 1)
        return sampler

    # ------------------------------------------------------------------
    # streaming API
    # ------------------------------------------------------------------
    @property
    def rows_seen(self) -> int:
        return self._rows_seen

    @property
    def rebalanced(self) -> bool:
        return self._rebalanced

    def observe(self, record: Mapping[str, object]) -> None:
        """Feed one stream record (a mapping with the key + value
        attributes; extra attributes are retained in the sample)."""
        key = tuple(record[attr] for attr in self.group_by)
        state = self._strata.get(key)
        if state is None:
            capacity = max(
                1,
                int(
                    self.headroom
                    * self.budget
                    / max(len(self._strata) + 1, 1)
                ),
            )
            state = _StratumState(self.value_columns, capacity, self._rng)
            self._strata[key] = state
        state.seen += 1
        for column in self.value_columns:
            state.stats[column].add(float(record[column]))
        state.reservoir.offer(dict(record))
        self._rows_seen += 1
        if self._rows_seen >= self._next_rebalance:
            self._rebalance()
            self._next_rebalance = max(
                self._next_rebalance * 2, self._rows_seen + 1
            )

    def observe_table(self, table: Table) -> None:
        """Convenience: stream a Table row by row (tests, examples)."""
        self._note_dtypes(table)
        for row in table.iter_rows():
            self.observe(row)

    def _note_dtypes(self, table: Table) -> None:
        """Remember each column's logical dtype so the finalized
        reservoir table round-trips the schema instead of re-inferring
        it from python values."""
        for name in table.column_names:
            self._column_dtypes[name] = table.column(name).dtype

    def decay_step(self, factor: float | None = None) -> None:
        """Apply one exponential-decay step to every stratum's moments.

        The caller decides what a "step" is — typically one tumbling
        window rolling over. Scaling is uniform per stratum
        (:meth:`WelfordAccumulator.scale`), so per-stratum means and CVs
        are preserved exactly; only the relative mass of old
        observations in the next re-balance shrinks.
        """
        factor = self.decay if factor is None else float(factor)
        if factor is None:
            raise ValueError("no decay factor configured or given")
        for state in self._strata.values():
            for acc in state.stats.values():
                acc.scale(factor)

    # ------------------------------------------------------------------
    # re-balancing
    # ------------------------------------------------------------------
    def rebalance(self) -> None:
        """Force a shrink-only re-balance now (batch maintenance)."""
        self._rebalance()

    def _rebalance(self) -> None:
        self._rebalanced = True
        keys = list(self._strata)
        if not keys:
            return
        # Combined multi-column objective (Theorem 2 summed across the
        # tracked columns, mirroring ``allocation.multi_column_alphas``):
        # alpha_c = sum over columns of that column's squared data CV,
        # each column floored independently so a near-zero-mean column
        # cannot blow up the whole allocation.
        alphas = np.zeros(len(keys), dtype=np.float64)
        for column in self.value_columns:
            means = np.asarray(
                [abs(self._strata[k].stats[column].mean) for k in keys]
            )
            stds = np.asarray(
                [self._strata[k].stats[column].std for k in keys]
            )
            finite = means[means > 0]
            floor = (
                self.mean_floor * float(finite.max()) if len(finite) else 1.0
            )
            means = np.maximum(means, max(floor, 1e-300))
            alphas += (stds / means) ** 2

        capacities = np.asarray(
            [self._strata[k].reservoir.capacity for k in keys],
            dtype=np.float64,
        )
        lower = np.minimum(1.0, capacities)
        target = box_constrained_allocation(
            alphas, self.budget, lower, capacities
        )
        sizes = integerize(
            target, self.budget, capacities.astype(np.int64)
        )
        for key, new_capacity in zip(keys, sizes):
            self._shrink(self._strata[key], int(new_capacity))

    def _shrink(self, state: _StratumState, new_capacity: int) -> None:
        """Shrink-only resize preserving within-stratum uniformity."""
        reservoir = state.reservoir
        if new_capacity >= reservoir.capacity:
            return  # growing would bias toward late items; keep as is
        items = reservoir.sample()
        if len(items) > new_capacity:
            picked = self._rng.choice(
                len(items), size=new_capacity, replace=False
            )
            items = [items[i] for i in picked]
        fresh = Reservoir(new_capacity, self._rng)
        fresh._items = items
        fresh._seen = reservoir.seen
        state.reservoir = fresh

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def statistics(self) -> StrataStatistics:
        """Stream statistics of every tracked column, per stratum.

        Keys are aligned with :meth:`finalize`'s allocation, so the
        result can be persisted next to the sample and handed back to
        :meth:`resume` for the next maintenance round. Moments are
        exact over the whole observed stream (warm-start population
        included), per column.
        """
        keys = list(self._strata)
        sizes = np.asarray(
            [self._strata[k].seen for k in keys], dtype=np.int64
        )
        stats = StrataStatistics(
            by=self.group_by,
            keys=keys,
            sizes=sizes,
        )
        for column in self.value_columns:
            accs = [self._strata[k].stats[column] for k in keys]
            counts, means, m2s = (
                np.asarray([getattr(a, f) for a in accs], dtype=np.float64)
                for f in ("count", "mean", "m2")
            )
            stats.columns[column] = ColumnStats(counts, means * counts, m2s)
        return stats

    def finalize(self) -> StratifiedSample:
        """Materialize the retained rows as a StratifiedSample."""
        if self._strata:
            self._rebalance()  # fold in strata seen since the last one
        keys = list(self._strata)
        populations = np.asarray(
            [self._strata[k].seen for k in keys], dtype=np.int64
        )
        rows: list = []
        strata_ids: list = []
        sizes = np.zeros(len(keys), dtype=np.int64)
        for idx, key in enumerate(keys):
            sample_rows = self._strata[key].reservoir.sample()
            sizes[idx] = len(sample_rows)
            rows.extend(sample_rows)
            strata_ids.extend([idx] * len(sample_rows))
        table = self._rows_to_table(rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                sizes > 0, populations / np.maximum(sizes, 1), 0.0
            )
        gids = np.asarray(strata_ids, dtype=np.int64)
        weights = scale[gids] if len(gids) else np.zeros(0)
        table = table.with_column(
            WEIGHT_COLUMN, Column(DType.FLOAT64, weights.astype(np.float64))
        )
        table = table.with_column(
            STRATUM_COLUMN, Column(DType.INT64, gids)
        )
        allocation = Allocation(
            by=self.group_by,
            keys=keys,
            populations=populations,
            sizes=sizes,
            stats=self.statistics(),
        )
        return StratifiedSample(
            table=table,
            allocation=allocation,
            method="CVOPT-STREAM",
            source_rows=self._rows_seen,
            budget=self.budget,
        )

    def _rows_to_table(self, rows: Sequence[Mapping[str, object]]) -> Table:
        if not rows:
            return Table({})
        columns = list(rows[0].keys())
        return Table(
            {
                name: Column.from_values(
                    [row[name] for row in rows],
                    self._column_dtypes.get(name),
                )
                for name in columns
            }
        )

