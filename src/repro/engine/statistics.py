"""Per-stratum statistics over one numerically stable moments type.

The offline phase of every stratified sampler needs, for each stratum
``c`` and each aggregation column ``l``: the size ``n_c``, mean
``mu_{c,l}`` and population standard deviation ``sigma_{c,l}``.
:class:`ColumnStats` carries them as ``(count, total, m2)``, ``m2``
being the *centred* sum ``sum w (x - mean)^2``; no sigma, ``VAR`` or
``STD`` in the system is recovered from ``E[x^2] - mean^2``, which
cancels catastrophically when ``|mean| >> sigma``. Its kernels are the
only moment arithmetic: :meth:`~ColumnStats.from_values` (two bincount
passes), :meth:`~ColumnStats.combine` (Chan, Golub & LeVeque's parallel
merge, vectorized, with optional decay scaling) and the verbatim
:meth:`~ColumnStats.take` / :meth:`~ColumnStats.concat`. The module
also provides the streaming Welford accumulator the paper's single-pass
formulation implies, plus the *roll-up* used by multiple group-bys: the
statistics of a coarser group ``a`` are merged from the finest strata
``c in C(a)`` without touching the data again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .groupby import GroupKeys, compute_group_keys
from .table import Table

__all__ = [
    "ColumnStats",
    "StrataStatistics",
    "WelfordAccumulator",
    "collect_strata_statistics",
    "rollup",
    "summarize_column_stats",
]

_FIELDS = ("count", "total", "m2")


def _ratio(num: np.ndarray, count: np.ndarray, empty: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(count > 0, num / count, empty)


@dataclass(init=False)
class ColumnStats:
    """Moments of one column within each stratum (arrays over strata).

    Raw ``total_sq`` (the pre-format-5 representation) is accepted in
    place of ``m2`` and converted once; it stays readable as a derived
    property.
    """

    count: np.ndarray  # n_c (sum of weights when weighted)
    total: np.ndarray  # sum of (weighted) values
    m2: np.ndarray  # sum of (weighted) squared deviations from the mean

    def __init__(self, count, total, m2=None, *, total_sq=None) -> None:
        self.count = np.asarray(count, dtype=np.float64)
        self.total = np.asarray(total, dtype=np.float64)
        if m2 is None:  # raw sum of squares: convert once
            square_of_total = _ratio(self.total**2, self.count, 0.0)
            m2 = np.maximum(np.asarray(total_sq) - square_of_total, 0.0)
        self.m2 = np.asarray(m2, dtype=np.float64)

    @classmethod
    def from_values(
        cls, values, gids: np.ndarray, n: int, weights=None
    ) -> "ColumnStats":
        """Per-group moments of ``values`` in two passes: totals, then
        squared deviations from each group's mean."""
        values = np.asarray(values, dtype=np.float64)
        if weights is None:  # unit weights, without the multiplies
            count = np.bincount(gids, minlength=n).astype(np.float64)
            total = np.bincount(gids, weights=values, minlength=n)
        else:
            count = np.bincount(gids, weights=weights, minlength=n)
            total = np.bincount(gids, weights=values * weights, minlength=n)
        dev = values - _ratio(total, count, 0.0)[gids]
        dev *= dev if weights is None else weights * dev
        return cls(count, total, np.bincount(gids, weights=dev, minlength=n))

    @classmethod
    def combine(
        cls,
        parts: Sequence["ColumnStats"],
        slots: Sequence[np.ndarray],
        n: int,
        factors: Sequence[float] | None = None,
    ) -> "ColumnStats":
        """Merge ``parts`` into ``n`` slots: entry ``j`` of part ``k``
        lands in slot ``slots[k][j]``.

        ``count`` and ``total`` add in part order; ``m2`` adds each
        entry's own ``m2`` plus its between-entry term ``count *
        (mean_entry - mean_slot)^2`` — Chan et al.'s pairwise update,
        generalized to any number of entries per slot. ``factors``
        scales one part's ``count``, ``total`` and ``m2`` together,
        which leaves its mean and variance unchanged (decay).
        """
        factors = [1.0] * len(parts) if factors is None else factors
        # A leading empty array keeps a merge of no parts well-defined.
        idx = np.concatenate(
            [np.zeros(0, np.int64)] + [np.asarray(s, np.int64) for s in slots]
        )
        count, total, m2 = (
            np.concatenate(
                [np.zeros(0)]
                + [f * getattr(p, name) for p, f in zip(parts, factors)]
            )
            for name in _FIELDS
        )
        merged_count = np.bincount(idx, weights=count, minlength=n)
        merged_total = np.bincount(idx, weights=total, minlength=n)
        between = _ratio(total, count, 0.0) - _ratio(
            merged_total, merged_count, 0.0
        )[idx]
        merged_m2 = np.bincount(
            idx, weights=m2 + count * between * between, minlength=n
        )
        return cls(merged_count, merged_total, merged_m2)

    @classmethod
    def concat(cls, parts: Sequence["ColumnStats"]) -> "ColumnStats":
        """Disjoint strata side by side, verbatim."""
        arrays = ([getattr(p, name) for p in parts] for name in _FIELDS)
        return cls(*map(np.concatenate, arrays))

    def take(self, idx) -> "ColumnStats":
        """The strata at ``idx``, verbatim."""
        return ColumnStats(self.count[idx], self.total[idx], self.m2[idx])

    @property
    def total_sq(self) -> np.ndarray:
        """Raw sum of squares, derived (legacy readers only)."""
        return self.m2 + _ratio(self.total**2, self.count, 0.0)

    @property
    def mean(self) -> np.ndarray:
        return _ratio(self.total, self.count, np.nan)

    @property
    def variance(self) -> np.ndarray:
        """Population variance (ddof=0)."""
        return _ratio(self.m2, self.count, np.nan)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def cv(self, mean_floor: float = 0.0) -> np.ndarray:
        """Coefficient of variation sigma/|mu| per stratum.

        ``mean_floor`` guards strata whose mean is (near) zero, where the
        CV is undefined (the paper assumes non-zero means): |mu| is
        floored at ``mean_floor * max|mu|``.
        """
        mean = np.abs(self.mean)
        if mean_floor > 0:
            finite = mean[np.isfinite(mean)]
            scale = float(finite.max()) if len(finite) else 0.0
            mean = np.maximum(mean, mean_floor * scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.std / mean


@dataclass
class StrataStatistics:
    """Per-stratum statistics for a fixed stratification.

    ``keys`` holds the decoded key tuple of each stratum, aligned with
    every array. ``columns`` maps aggregation-column name to its
    :class:`ColumnStats`.
    """

    by: Tuple[str, ...]
    keys: list
    sizes: np.ndarray  # n_c, int64
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    @property
    def num_strata(self) -> int:
        return len(self.keys)

    @property
    def total_rows(self) -> int:
        return int(self.sizes.sum())

    def key_index(self) -> dict:
        return {key: i for i, key in enumerate(self.keys)}

    def stats_for(self, column: str) -> ColumnStats:
        if column not in self.columns:
            raise KeyError(
                f"no statistics for column {column!r}; "
                f"collected: {', '.join(self.columns)}"
            )
        return self.columns[column]

    def column_summaries(self, mean_floor: float = 1e-9) -> Dict[str, Dict]:
        """JSON-ready per-column summary (``/stats``, CLI accounting)."""
        return {
            name: summarize_column_stats(cs, mean_floor=mean_floor)
            for name, cs in self.columns.items()
        }


def collect_strata_statistics(
    table: Table,
    by: Sequence[str],
    agg_columns: Sequence[str],
    keys: GroupKeys | None = None,
) -> StrataStatistics:
    """Two-pass statistics for stratification ``by``.

    ``keys`` may carry a pre-computed factorization (the samplers reuse
    one factorization for statistics and the sample draw).
    """
    if keys is None:
        keys = compute_group_keys(table, by)
    n_groups = keys.num_groups
    sizes = np.bincount(keys.gids, minlength=n_groups).astype(np.int64)
    stats = StrataStatistics(
        by=tuple(by),
        keys=keys.key_tuples(table),
        sizes=sizes,
    )
    for col_name in dict.fromkeys(agg_columns):  # dedupe, keep order
        values = table.column(col_name).values_numeric()
        stats.columns[col_name] = ColumnStats.from_values(
            values, keys.gids, n_groups
        )
    return stats


def rollup(
    fine: StrataStatistics, parent_gids: np.ndarray, num_parents: int
) -> StrataStatistics:
    """Merge finest-strata statistics into coarser groups.

    ``parent_gids[c]`` is the coarse-group id of fine stratum ``c``.
    Moments merge exactly (:meth:`ColumnStats.combine` adds the
    between-strata term to the parents' ``m2``), so no data pass is
    needed — this is exactly the property the paper relies on for
    multiple group-bys ("compute the CV of a stratum using statistics
    stored for strata in finer stratification").
    """
    parent_gids = np.asarray(parent_gids, dtype=np.int64)
    if len(parent_gids) != fine.num_strata:
        raise ValueError("parent_gids must have one entry per fine stratum")
    sizes = np.bincount(
        parent_gids, weights=fine.sizes.astype(np.float64), minlength=num_parents
    ).astype(np.int64)
    merged = StrataStatistics(
        by=(), keys=[None] * num_parents, sizes=sizes
    )
    for name, cs in fine.columns.items():
        merged.columns[name] = ColumnStats.combine(
            [cs], [parent_gids], num_parents
        )
    return merged


def summarize_column_stats(
    cs: ColumnStats, mean_floor: float = 1e-9
) -> Dict:
    """Scalar summary of one column's per-stratum moments.

    Collapses the stratum arrays into the figures monitoring cares
    about — how many strata carry data and how dispersed the column is
    (mean/max per-stratum data CV). Never raises on empty or
    degenerate strata; CVs that stay undefined are reported as None.
    """
    populated = int(np.count_nonzero(np.asarray(cs.count) > 0))
    cvs = cs.cv(mean_floor=mean_floor)
    finite = cvs[np.isfinite(cvs)]
    return {
        "strata": int(len(cs.count)),
        "populated_strata": populated,
        "mean_data_cv": float(finite.mean()) if len(finite) else None,
        "max_data_cv": float(finite.max()) if len(finite) else None,
    }


class WelfordAccumulator:
    """Streaming mean/variance (Welford), with parallel merge.

    Matches the one-pass statistics collection of the paper's offline
    phase; ``merge`` implements Chan et al.'s parallel update so shards
    of a distributed scan combine exactly.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def add_many(self, values) -> None:
        for v in np.asarray(values, dtype=np.float64):
            self.add(float(v))

    def scale(self, factor: float) -> None:
        """Uniformly down-weight the accumulated mass.

        Scaling ``count`` and ``m2`` by the same factor leaves the mean
        and (population) variance unchanged — only the state's weight
        relative to later observations shrinks. This is the exponential
        -decay primitive: applied once per window boundary, older data
        contributes ``factor**age`` of its original mass to every
        subsequent re-balance decision. ``count`` becomes fractional;
        all downstream moment math is float already.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        self.count *= factor
        self.m2 *= factor

    def merge(self, other: "WelfordAccumulator") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return
        delta = other.mean - self.mean
        total = self.count + other.count
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta**2 * self.count * other.count / total
        self.count = total

    @property
    def variance(self) -> float:
        """Population variance (ddof=0)."""
        if self.count == 0:
            return float("nan")
        return max(self.m2 / self.count, 0.0)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def cv(self) -> float:
        if self.count == 0 or self.mean == 0:
            return float("nan")
        return self.std / abs(self.mean)
