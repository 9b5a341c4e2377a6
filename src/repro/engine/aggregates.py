"""Per-group aggregate kernels, with optional row weights.

All kernels take pre-computed group ids (``gids``, dense ``0..n_groups-1``
int64 per row) and return one float64 value per group.

Weights implement Horvitz-Thompson scale-up for approximate query
processing: a sampled row from stratum ``c`` carries weight ``n_c / s_c``.
``SUM`` becomes the weighted sum, ``COUNT`` the weighted count, and ``AVG``
their ratio. ``MIN``/``MAX`` are the sample extrema (weights cannot
unbias them; this matches how AQP systems report them). ``VAR``/``STD``
are population moments; ``MEDIAN`` is the weighted median.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "compute_aggregate",
    "group_sums",
    "group_counts",
]

_EMPTY = np.nan


def group_counts(gids: np.ndarray, n_groups: int, weights=None) -> np.ndarray:
    if weights is None:
        return np.bincount(gids, minlength=n_groups).astype(np.float64)
    return np.bincount(gids, weights=weights, minlength=n_groups)


def group_sums(
    values: np.ndarray, gids: np.ndarray, n_groups: int, weights=None
) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if weights is not None:
        values = values * weights
    return np.bincount(gids, weights=values, minlength=n_groups)


def _agg_count(values, gids, n_groups, weights):
    return group_counts(gids, n_groups, weights)


def _agg_sum(values, gids, n_groups, weights):
    return group_sums(values, gids, n_groups, weights)


def _agg_avg(values, gids, n_groups, weights):
    totals = group_sums(values, gids, n_groups, weights)
    counts = group_counts(gids, n_groups, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(counts > 0, totals / counts, _EMPTY)


def _agg_min(values, gids, n_groups, weights):
    out = np.full(n_groups, np.inf)
    np.minimum.at(out, gids, np.asarray(values, dtype=np.float64))
    out[np.isinf(out)] = _EMPTY
    return out


def _agg_max(values, gids, n_groups, weights):
    out = np.full(n_groups, -np.inf)
    np.maximum.at(out, gids, np.asarray(values, dtype=np.float64))
    out[np.isinf(out)] = _EMPTY
    return out


def _agg_var(values, gids, n_groups, weights):
    """Population variance (ddof=0), weighted when weights are given."""
    # Imported here: statistics imports groupby, which imports this module.
    from .statistics import ColumnStats

    return ColumnStats.from_values(values, gids, n_groups, weights).variance


def _agg_std(values, gids, n_groups, weights):
    return np.sqrt(_agg_var(values, gids, n_groups, weights))


def _agg_median(values, gids, n_groups, weights):
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return np.full(n_groups, _EMPTY)
    order = np.lexsort((values, gids))
    sorted_gids = gids[order]
    sorted_vals = values[order]
    sorted_w = (
        np.ones(len(values)) if weights is None else np.asarray(weights)[order]
    )
    starts = np.searchsorted(sorted_gids, np.arange(n_groups), side="left")
    ends = np.searchsorted(sorted_gids, np.arange(n_groups), side="right")
    out = np.full(n_groups, _EMPTY)
    for g in range(n_groups):
        lo, hi = starts[g], ends[g]
        if lo == hi:
            continue
        vals = sorted_vals[lo:hi]
        wts = sorted_w[lo:hi]
        cum = np.cumsum(wts)
        half = cum[-1] / 2.0
        idx = int(np.searchsorted(cum, half, side="left"))
        if weights is None and (hi - lo) % 2 == 0 and np.isclose(cum[idx], half):
            # Unweighted even count: average the two middle values.
            out[g] = 0.5 * (vals[idx] + vals[min(idx + 1, hi - lo - 1)])
        else:
            out[g] = vals[min(idx, hi - lo - 1)]
    return out


def _agg_count_if(values, gids, n_groups, weights):
    """COUNT_IF(cond): weighted count of rows where cond holds."""
    cond = np.asarray(values, dtype=np.float64)
    if weights is not None:
        cond = cond * weights
    return np.bincount(gids, weights=cond, minlength=n_groups)


AGGREGATE_FUNCTIONS = {
    "COUNT": _agg_count,
    "SUM": _agg_sum,
    "AVG": _agg_avg,
    "MEAN": _agg_avg,
    "MIN": _agg_min,
    "MAX": _agg_max,
    "VAR": _agg_var,
    "VARIANCE": _agg_var,
    "STD": _agg_std,
    "STDDEV": _agg_std,
    "MEDIAN": _agg_median,
    "COUNT_IF": _agg_count_if,
}


def compute_aggregate(
    func: str,
    values: np.ndarray | None,
    gids: np.ndarray,
    n_groups: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Dispatch one aggregate over pre-factorized groups."""
    kernel = AGGREGATE_FUNCTIONS.get(func.upper())
    if kernel is None:
        raise ValueError(
            f"unknown aggregate {func!r}; "
            f"supported: {', '.join(sorted(AGGREGATE_FUNCTIONS))}"
        )
    if func.upper() != "COUNT" and values is None:
        raise ValueError(f"{func} requires an argument")
    if values is not None:
        values = np.asarray(values)
        if values.dtype == np.bool_:
            values = values.astype(np.float64)
    return kernel(values, gids, n_groups, weights)
