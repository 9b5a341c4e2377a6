"""Decomposable aggregates: per-shard partials and their exact merge.

The scatter-gather protocol rests on one algebraic fact: every
aggregate the engine serves over a stratified sample is a function of
per-group *mergeable moments*. With Horvitz-Thompson weights ``w``:

* ``COUNT``            = sum of ``w``                    (additive)
* ``SUM`` / ``COUNT_IF`` = sum of ``w * v``              (additive)
* ``AVG``              = sum(w*v) / sum(w)               (from moments)
* ``VAR`` / ``STD``    = m2 / sum(w), where m2 = sum w*(v - AVG)^2
* ``MIN`` / ``MAX``    = min/max of per-shard extrema

Because shards partition the sample rows, each shard computes its
moments over its own rows and the front merges them with the same
:class:`~repro.engine.statistics.ColumnStats` kernels the engine uses,
applied per query group. ``MEDIAN`` is the one engine aggregate with
no such decomposition; queries using it (or any shape this module
cannot prove decomposable — joins, CTEs, CUBE, HAVING, computed group
keys) fall back to exact execution at the front.

:func:`decompose` turns a parsed query into a :class:`DecomposedQuery`
or ``None``; :func:`compute_partials` runs on a shard worker against
its slice of the sample; :func:`merge_partials` +
:func:`finalize_partials` run on the front and reproduce — modulo
floating-point summation order — exactly what the unsharded engine's
``GroupAggregateOp`` would have produced on the whole sample,
including output column names and post-aggregation expressions
(``SUM(x)/COUNT(*)`` etc. are evaluated over the merged moments with
the executor's own placeholder rewrite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.sample import STRATUM_COLUMN, WEIGHT_COLUMN, StratifiedSample
from ..engine.expr import (
    AggCall,
    ColumnRef,
    Expr,
    Star,
    collect_agg_calls,
    collect_column_refs,
    evaluate,
    evaluate_predicate,
    expr_to_sql,
    rewrite,
)
from ..engine.groupby import compute_group_keys
from ..engine.statistics import ColumnStats
from ..engine.sql.ast import NamedTable, SelectItem, SelectQuery
from ..engine.sql.errors import QueryExecutionError
from ..engine.sql.operators import (
    _column_from_array,
    _empty_context,
    _output_name,
    masked_rows,
    sort_permutation,
)
from ..engine.table import Table

__all__ = [
    "DecomposedQuery",
    "ShardPartials",
    "compute_partials",
    "decompose",
    "finalize_partials",
    "merge_partials",
]

#: Aggregates with an exact moment/extremum decomposition. ``MEDIAN``
#: is deliberately absent.
DECOMPOSABLE_FUNCS = frozenset(
    {
        "COUNT", "SUM", "AVG", "MEAN", "MIN", "MAX",
        "VAR", "VARIANCE", "STD", "STDDEV", "COUNT_IF",
    }
)


@dataclass(frozen=True)
class DecomposedQuery:
    """A query proven decomposable into per-shard partials.

    ``items`` are the SELECT items with qualifiers stripped and
    aggregate calls replaced by ``__agg_i`` placeholder refs;
    ``agg_calls`` holds the deduplicated calls, index-aligned with the
    placeholders. ``output_names`` reproduces the unsharded engine's
    output schema (aliases, or the original expression's SQL).
    """

    table: str
    where: Optional[Expr]
    key_names: Tuple[str, ...]
    items: Tuple[SelectItem, ...]
    output_names: Tuple[str, ...]
    agg_calls: Tuple[AggCall, ...]
    order_by: Tuple[Tuple[str, bool], ...]
    limit: Optional[int]


@dataclass
class ShardPartials:
    """One shard's per-group partial moments for one query.

    ``keys`` are decoded group-key tuples; all arrays align with them.
    ``blocks[i]`` belongs to ``agg_calls[i]`` (``None`` for argument-
    less COUNT): weighted ``total`` and centred ``m2`` (which, with
    ``wcount``, form one :class:`~repro.engine.statistics.ColumnStats`)
    plus raw ``vmin``/``vmax`` with infinity identities.
    """

    keys: List[tuple]
    wcount: np.ndarray  # sum of HT weights per group
    support: np.ndarray  # raw sample rows per group
    blocks: List[Optional[Dict[str, np.ndarray]]]
    sample_version: Optional[str] = None


def _strip(name: str) -> str:
    return name.split(".")[-1]


def _strip_refs(expr: Expr) -> Expr:
    """Rewrite ``t.col`` references to bare ``col`` ones."""
    mapping = {
        ref: ColumnRef(_strip(ref.name))
        for ref in collect_column_refs(expr)
        if "." in ref.name
    }
    return rewrite(expr, mapping) if mapping else expr


def decompose(query: SelectQuery) -> Optional[DecomposedQuery]:
    """Prove ``query`` decomposable, or return ``None``.

    Supported: single-table aggregate SELECTs with plain-column group
    keys, any WHERE the engine can evaluate row-wise, SELECT items
    that are group keys or expressions over decomposable aggregates,
    ORDER BY on output columns, and LIMIT. Anything else — joins,
    subqueries, CTEs, CUBE, HAVING, MEDIAN, computed group keys —
    returns ``None`` and is executed exactly at the front.
    """
    if (
        query.ctes
        or query.with_cube
        or query.having is not None
        or not isinstance(query.from_clause, NamedTable)
        or not query.is_aggregate
    ):
        return None
    alias_map = {
        item.alias: item.expr for item in query.items if item.alias
    }
    key_names: List[str] = []
    for expr in query.group_by:
        if isinstance(expr, ColumnRef) and expr.name in alias_map:
            expr = alias_map[expr.name]
        if not isinstance(expr, ColumnRef):
            return None  # computed group key
        key_names.append(_strip(expr.name))

    agg_calls: List[AggCall] = []
    for item in query.items:
        agg_calls.extend(collect_agg_calls(item.expr))
    agg_calls = list(dict.fromkeys(agg_calls))
    for call in agg_calls:
        if call.func.upper() not in DECOMPOSABLE_FUNCS:
            return None
        if call.arg is not None and not isinstance(call.arg, Star):
            if collect_agg_calls(call.arg):
                return None  # nested aggregate
    stripped_calls = tuple(
        AggCall(call.func, _strip_refs(call.arg))
        if call.arg is not None and not isinstance(call.arg, Star)
        else call
        for call in agg_calls
    )

    # Rewrite items: strip qualifiers, then swap aggregate calls for
    # placeholder refs (the executor's own technique), and verify that
    # what remains only references group keys and placeholders.
    placeholders = {
        call: ColumnRef(f"__agg_{i}") for i, call in enumerate(agg_calls)
    }
    placeholder_names = {ref.name for ref in placeholders.values()}
    items: List[SelectItem] = []
    output_names: List[str] = []
    for i, item in enumerate(query.items):
        if isinstance(item.expr, Star):
            return None
        rewritten = _strip_refs(rewrite(item.expr, placeholders))
        for ref in collect_column_refs(rewritten):
            if (
                ref.name not in placeholder_names
                and ref.name not in key_names
            ):
                return None  # non-grouped bare column
        items.append(SelectItem(rewritten, item.alias))
        output_names.append(item.alias or _output_name(item.expr, i))

    order_by: List[Tuple[str, bool]] = []
    for order in query.order_by:
        expr = order.expr
        name = _strip(expr.name) if isinstance(expr, ColumnRef) else None
        if name is None or name not in output_names:
            return None
        order_by.append((name, order.ascending))

    where = _strip_refs(query.where) if query.where is not None else None
    if where is not None and collect_agg_calls(where):
        return None
    return DecomposedQuery(
        table=query.from_clause.name,
        where=where,
        key_names=tuple(key_names),
        items=tuple(items),
        output_names=tuple(output_names),
        agg_calls=stripped_calls,
        order_by=tuple(order_by),
        limit=query.limit,
    )


# ----------------------------------------------------------------------
# shard side
# ----------------------------------------------------------------------
def compute_partials(
    sample: StratifiedSample, dq: DecomposedQuery
) -> ShardPartials:
    """Per-group partial moments over one shard's sample rows.

    Applies the WHERE filter, groups by the query keys and computes
    the weighted moment block of every aggregate argument — the exact
    per-shard summands of the unsharded kernels in
    :mod:`repro.engine.aggregates`.

    The filter is fused the same way ``GroupAggregateOp`` fuses it: the
    predicate becomes a row mask for :func:`compute_group_keys` (which
    serves the unfiltered group codes from the cache on a stamped
    table), and only the aggregate arguments and HT weights are masked.
    No step copies the whole table, so with a lazy mmap-backed sample a
    shard worker's resident set stays proportional to the query, not
    the sample.
    """
    table = sample.table
    args = [
        call.arg
        for call in dq.agg_calls
        if call.arg is not None and not isinstance(call.arg, Star)
    ]
    mask = None
    rows = table
    if dq.where is not None:
        mask = evaluate_predicate(dq.where, table)
        rows = masked_rows(table, mask, args, [WEIGHT_COLUMN])
    weights = (
        rows.column(WEIGHT_COLUMN).values_numeric()
        if WEIGHT_COLUMN in rows
        else np.ones(rows.num_rows)
    )
    keys = compute_group_keys(table, dq.key_names, mask)
    num_groups = keys.num_groups
    if not dq.key_names:
        # A full-table aggregate always has its one group, even over an
        # empty shard (SQL's COUNT=0 row) — the merge needs the slot.
        num_groups = 1
        tuples = [()]
    else:
        tuples = keys.key_tuples(table)
    gids = keys.gids
    wcount = np.bincount(gids, weights=weights, minlength=num_groups)
    support = np.bincount(gids, minlength=num_groups).astype(np.int64)
    blocks: List[Optional[Dict[str, np.ndarray]]] = []
    for call in dq.agg_calls:
        if call.arg is None or isinstance(call.arg, Star):
            blocks.append(None)
            continue
        values = np.asarray(evaluate(call.arg, rows))
        if values.dtype.kind in ("O", "U", "S"):
            raise QueryExecutionError(
                "cannot aggregate string expression "
                f"{expr_to_sql(call.arg)}"
            )
        values = values.astype(np.float64)
        moments = ColumnStats.from_values(values, gids, num_groups, weights)
        vmin = np.full(num_groups, np.inf)
        vmax = np.full(num_groups, -np.inf)
        if len(values):
            np.minimum.at(vmin, gids, values)
            np.maximum.at(vmax, gids, values)
        blocks.append(
            {
                "total": moments.total,
                "m2": moments.m2,
                "vmin": vmin,
                "vmax": vmax,
            }
        )
    return ShardPartials(
        keys=[tuple(k) for k in tuples],
        wcount=wcount,
        support=support,
        blocks=blocks,
    )


# ----------------------------------------------------------------------
# front side
# ----------------------------------------------------------------------
def merge_partials(
    parts: Sequence[ShardPartials], num_calls: int
) -> ShardPartials:
    """Merge per-shard moments group-by-group (exact, order-insensitive
    up to float summation order); extrema merge by min/max."""
    index: Dict[tuple, int] = {}
    for part in parts:
        for key in part.keys:
            index.setdefault(key, len(index))
    merged_keys = sorted(index, key=_merge_sort_key)
    index = {key: i for i, key in enumerate(merged_keys)}
    n = max(len(merged_keys), 1)
    wcount = np.zeros(n)
    support = np.zeros(n, dtype=np.int64)
    # An index needs a moment block iff any shard computed one — even a
    # shard with zero matching groups says whether the call takes an
    # argument, so an all-empty result still finalizes cleanly.
    blocks: List[Optional[Dict[str, np.ndarray]]] = [
        (
            {"vmin": np.full(n, np.inf), "vmax": np.full(n, -np.inf)}
            if any(
                i < len(part.blocks) and part.blocks[i] is not None
                for part in parts
            )
            else None
        )
        for i in range(num_calls)
    ]
    moments: List[Tuple[list, list]] = [([], []) for _ in range(num_calls)]
    for part in parts:
        if not part.keys:
            continue
        rows = np.asarray([index[key] for key in part.keys])
        np.add.at(wcount, rows, part.wcount)
        np.add.at(support, rows, part.support)
        for i, block in enumerate(part.blocks):
            if block is None:
                continue
            moments[i][0].append(
                ColumnStats(part.wcount, block["total"], block["m2"])
            )
            moments[i][1].append(rows)
            np.minimum.at(blocks[i]["vmin"], rows, block["vmin"])
            np.maximum.at(blocks[i]["vmax"], rows, block["vmax"])
    for block, (stats, slots) in zip(blocks, moments):
        if block is not None:
            merged = ColumnStats.combine(stats, slots, n)
            block["total"], block["m2"] = merged.total, merged.m2
    return ShardPartials(
        keys=list(merged_keys),
        wcount=wcount,
        support=support,
        blocks=blocks,
    )


def _merge_sort_key(key: tuple):
    return tuple(
        (v is None, isinstance(v, str), v if v is not None else 0)
        for v in key
    )


def _final_values(
    func: str, wcount: np.ndarray, block: Optional[Dict[str, np.ndarray]]
) -> np.ndarray:
    """The unsharded kernel's output, computed from merged moments."""
    func = func.upper()
    if func == "COUNT":
        return wcount.astype(np.float64)
    if block is None:
        raise QueryExecutionError(f"{func} requires an argument")
    if func in ("SUM", "COUNT_IF"):
        return block["total"].astype(np.float64)
    moments = ColumnStats(wcount, block["total"], block["m2"])
    if func in ("AVG", "MEAN"):
        return moments.mean
    if func == "MIN":
        out = block["vmin"].copy()
        out[np.isinf(out)] = np.nan
        return out
    if func == "MAX":
        out = block["vmax"].copy()
        out[np.isinf(out)] = np.nan
        return out
    if func in ("VAR", "VARIANCE"):
        return moments.variance
    if func in ("STD", "STDDEV"):
        return moments.std
    raise QueryExecutionError(f"aggregate {func!r} is not decomposable")


def finalize_partials(
    dq: DecomposedQuery, merged: ShardPartials
) -> Table:
    """Assemble the final answer table from merged partials.

    Reproduces ``GroupAggregateOp``'s output assembly: a group-key
    context table plus one ``__agg_i`` array per aggregate, with each
    SELECT item evaluated over them, then ORDER BY / LIMIT.
    """
    # Grouped queries with no surviving group produce an empty table;
    # full-table aggregates always have their one () group.
    num_groups = len(merged.keys) if dq.key_names else 1
    wcount = merged.wcount[:num_groups]
    gtable_cols = {}
    for j, name in enumerate(dq.key_names):
        gtable_cols[name] = _column_from_array(
            np.asarray([key[j] for key in merged.keys])
        )
    gtable = Table(gtable_cols) if gtable_cols else _empty_context(num_groups)
    extra = {
        f"__agg_{i}": _final_values(
            call.func,
            wcount,
            (
                {k: v[:num_groups] for k, v in merged.blocks[i].items()}
                if merged.blocks[i] is not None
                else None
            ),
        )
        for i, call in enumerate(dq.agg_calls)
    }
    out = {}
    for name, item in zip(dq.output_names, dq.items):
        expr = item.expr
        if isinstance(expr, ColumnRef) and expr.name in gtable:
            out[name] = gtable.column(expr.name)
        else:
            out[name] = _column_from_array(
                np.asarray(evaluate(expr, gtable, extra))
            )
    table = Table(out)
    if dq.order_by:
        keys = [(ColumnRef(name), asc) for name, asc in dq.order_by]
        table = table.take(sort_permutation(table, keys))
    if dq.limit is not None:
        table = table.head(dq.limit)
    return table
