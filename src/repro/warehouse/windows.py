"""Time-windowed samples: tumbling partition and exact window merge.

A windowed sample family partitions ingest by a declared timestamp
column into half-open tumbling windows ``[start, start + width)``
(``start = (ts // width) * width``), and builds one independent CVOPT
sample per window. Each window is persisted as its own store member
(``base@w<start>``) tagged with a ``window`` block in meta.

Sliding-window queries are answered compositionally: the per-(stratum,
column) ``(count, total, m2)`` moments of the covered windows are
**combined** per stratum key
(:meth:`~repro.engine.statistics.ColumnStats.combine`) — windows
partition the base rows, so the moments merge exactly ("A Sampling
Algebra for Aggregate Estimation", arXiv 1307.0193). This is the same
compositional move as the sharded scatter-gather merge (:func:`~repro.warehouse.sharding.merge_shard_allocations`)
with one structural difference: shards own *disjoint* strata (merge =
concatenate), while windows *share* strata (merge = combine per key).

Optional exponential decay biases a merged sample toward recent data:
window ``w`` (counting back from the newest covered window) has its
moments and Horvitz-Thompson row weights scaled by ``decay ** w``.
Scaling ``(count, total, m2)`` uniformly leaves every per-window
mean and CV unchanged — only the windows' *relative* mass in the
mixture shifts — and raw integer populations/sizes are kept unscaled,
so the allocation invariants (``sizes <= populations``) hold verbatim.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.sample import (
    STRATUM_COLUMN,
    WEIGHT_COLUMN,
    Allocation,
    StratifiedSample,
)
from ..engine.schema import DType
from ..engine.statistics import ColumnStats, StrataStatistics
from ..engine.table import Column, Table
from .sharding import _sort_key

__all__ = [
    "SLIDE_SUFFIX",
    "WINDOWED_METHOD",
    "covering_window_starts",
    "format_window",
    "merge_window_allocations",
    "merge_window_samples",
    "parse_window",
    "parse_window_sample_name",
    "partition_by_window",
    "window_decay_factors",
    "window_sample_name",
    "window_start",
]

#: Method tag of a merged sliding-window sample.
WINDOWED_METHOD = "CVOPT-WINDOWED"

#: Registered name suffix of the materialized sliding merge of a family.
SLIDE_SUFFIX = "@slide"

_UNIT_SECONDS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}

_SPEC_RE = re.compile(r"^\s*(\d+)\s*([smhdw]?)\s*$")

_NAME_RE = re.compile(r"^(?P<base>.+)@w(?P<start>-?\d+)$")


def parse_window(spec) -> int:
    """Window width in seconds from a ``"90s" / "15m" / "1h" / "7d"``
    spec (bare integers are seconds)."""
    if isinstance(spec, (int, np.integer)):
        width = int(spec)
    else:
        match = _SPEC_RE.match(str(spec))
        if not match:
            raise ValueError(
                f"bad window spec {spec!r}; expected e.g. 90s, 15m, 1h, 7d"
            )
        width = int(match.group(1)) * _UNIT_SECONDS[match.group(2) or "s"]
    if width <= 0:
        raise ValueError("window width must be positive")
    return width


def format_window(width: int) -> str:
    """Shortest round-trippable spec for ``width`` seconds."""
    for unit in ("w", "d", "h", "m"):
        size = _UNIT_SECONDS[unit]
        if width % size == 0:
            return f"{width // size}{unit}"
    return f"{width}s"


def window_start(ts: int, width: int) -> int:
    """Start of the half-open tumbling window containing ``ts``.

    Floor division keeps negative timestamps in exactly one window too.
    """
    return int(ts // width) * width


def window_sample_name(base: str, start: int) -> str:
    """Store member name of one window of family ``base``."""
    return f"{base}@w{int(start)}"


def parse_window_sample_name(name: str) -> Optional[Tuple[str, int]]:
    """``(base, start)`` if ``name`` is a window member, else None."""
    match = _NAME_RE.match(name)
    if not match:
        return None
    return match.group("base"), int(match.group("start"))


def covering_window_starts(
    lo: int, hi: int, width: int
) -> List[int]:
    """Starts of the tumbling windows intersecting half-open ``[lo, hi)``."""
    if hi <= lo:
        return []
    first = window_start(lo, width)
    last = window_start(hi - 1, width)
    return list(range(first, last + width, width))


def partition_by_window(
    table: Table, column: str, width: int
) -> Dict[int, Table]:
    """Split ``table`` into per-window tables, keyed by window start.

    Each row lands in exactly one half-open window; the result is
    ordered by start.
    """
    ts = table.column(column).values_numeric().astype(np.int64)
    starts = (ts // width) * width
    out: Dict[int, Table] = {}
    for start in sorted({int(s) for s in starts}):
        out[int(start)] = table.filter(starts == start)
    return out


def window_decay_factors(
    starts: Sequence[int], width: int, decay: Optional[float]
) -> Dict[int, float]:
    """Per-window scale factor: newest window 1.0, each step back
    multiplied by ``decay``."""
    starts = [int(s) for s in starts]
    if decay is None or not starts:
        return {s: 1.0 for s in starts}
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")
    newest = max(starts)
    return {
        s: float(decay) ** ((newest - s) // width) for s in starts
    }


def merge_window_allocations(
    allocations: Sequence[Allocation],
    factors: Optional[Sequence[float]] = None,
) -> Allocation:
    """Sum per-window allocations into the sliding-window view.

    Windows partition the base rows but *share* strata, so — unlike the
    disjoint-strata shard merge — populations and sizes are **summed**
    and per-column moments **combined** per stratum key. ``factors``
    (aligned with ``allocations``) scales each window's statistics
    moments for decay; populations and sizes stay raw integer sums so
    the ``sizes <= populations`` invariant is untouched.
    """
    allocations = [a for a in allocations if a is not None]
    if not allocations:
        raise ValueError("no window allocations to merge")
    if factors is None:
        factors = [1.0] * len(allocations)
    if len(factors) != len(allocations):
        raise ValueError("factors must align with allocations")
    by = tuple(allocations[0].by)
    index: Dict[tuple, int] = {}
    keys: List[tuple] = []
    for alloc in allocations:
        if tuple(alloc.by) != by:
            raise ValueError(
                "window allocations stratify differently: "
                f"{tuple(alloc.by)} vs {by}"
            )
        for key in alloc.keys:
            key = tuple(key)
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
    try:
        order = sorted(range(len(keys)), key=lambda i: _sort_key(keys[i]))
    except TypeError:  # unorderable mixed-type keys: first-seen order
        order = list(range(len(keys)))
    keys = [keys[i] for i in order]
    index = {key: i for i, key in enumerate(keys)}

    n = len(keys)
    populations = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    slots = [
        np.asarray([index[tuple(k)] for k in alloc.keys], dtype=np.int64)
        for alloc in allocations
    ]
    for alloc, slot in zip(allocations, slots):
        np.add.at(populations, slot, alloc.populations)
        np.add.at(sizes, slot, alloc.sizes)
    stats = None
    if all(a.stats is not None for a in allocations):
        names = set.intersection(
            *(set(a.stats.columns) for a in allocations)
        )
        stats = StrataStatistics(
            by=by,
            keys=keys,
            sizes=sizes.copy(),
            columns={
                name: ColumnStats.combine(
                    [a.stats.columns[name] for a in allocations],
                    slots,
                    n,
                    factors,
                )
                for name in names
            },
        )
    return Allocation(
        by=by,
        keys=keys,
        populations=populations,
        sizes=sizes,
        stats=stats,
    )


def merge_window_samples(
    samples: Sequence[StratifiedSample],
    factors: Optional[Sequence[float]] = None,
) -> StratifiedSample:
    """Materialize the sliding-window sample from per-window samples.

    Rows are concatenated with stratum ids remapped onto the merged key
    order and Horvitz-Thompson weights scaled by the window's decay
    factor; the merged allocation carries the exactly merged (optionally
    decayed) moments. With ``factors`` all 1.0 the result is
    moment-exact versus a sample maintained on the union of the
    windows' rows.
    """
    samples = [s for s in samples if s is not None]
    if not samples:
        raise ValueError("no window samples to merge")
    if factors is None:
        factors = [1.0] * len(samples)
    merged_alloc = merge_window_allocations(
        [s.allocation for s in samples], factors
    )
    index = {tuple(k): i for i, k in enumerate(merged_alloc.keys)}
    table: Optional[Table] = None
    for sample, factor in zip(samples, factors):
        part = sample.table
        if part.num_rows == 0:
            continue
        local = sample.allocation
        remap = np.asarray(
            [index[tuple(k)] for k in local.keys], dtype=np.int64
        )
        gids = (
            part.column(STRATUM_COLUMN).data.astype(np.int64)
            if STRATUM_COLUMN in part
            else np.zeros(part.num_rows, dtype=np.int64)
        )
        part = part.with_column(
            STRATUM_COLUMN, Column(DType.INT64, remap[gids])
        )
        if WEIGHT_COLUMN in part and factor != 1.0:
            weights = part.column(WEIGHT_COLUMN).data.astype(np.float64)
            part = part.with_column(
                WEIGHT_COLUMN, Column(DType.FLOAT64, weights * factor)
            )
        table = part if table is None else table.concat(part)
    if table is None:
        table = Table({})
    return StratifiedSample(
        table=table,
        allocation=merged_alloc,
        method=WINDOWED_METHOD,
        source_rows=sum(int(s.source_rows) for s in samples),
        budget=sum(int(s.budget) for s in samples),
    )
