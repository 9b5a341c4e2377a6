"""Vectorized group-by: factorization kernels, grouping sets, and CUBE.

The central object is :class:`GroupKeys` — dense group ids per row plus
one representative row index per group, from which key values for any
grouped column can be recovered without re-hashing.

Grouping has one cost rule, owned by :func:`compute_group_keys`, the
entry point every operator, sample build and shard partial calls. It
decides at two levels, each on exact facts about the data:

* per column, :func:`factorize` routes by value domain between
  :func:`factorize_hash` — O(n) direct addressing, which covers
  dictionary-encoded strings, int64/timestamp columns, bools and
  combined codes — and :func:`factorize_sort`, the ``np.unique`` path
  for floats, objects and integer domains too sparse to direct-address;
* across columns, the exact product of the per-column cardinalities
  picks one combined int64 code (factorized again) while it fits, and
  a lexsort over the per-column codes once it would wrap.

Every leg emits *identical* output — dense int64 ids in ascending key
order with first-occurrence representatives — so routing is a pure
performance decision (proven by ``tests/properties/test_groupby_kernels.py``
against :func:`compute_group_keys_sorted`, the always-lexsort reference).

On top of the kernels, :func:`compute_group_keys` consults the
per-version group-code cache (:mod:`repro.engine.groupcache`) when the
table carries a ``cache_token``: sample versions and registered base
tables are immutable, so a repeated query shape skips factorization
entirely. A ``WHERE`` clause reaches grouping as a row ``mask``: on a
stamped table the cached unfiltered ids are compacted to the groups the
mask keeps, on any other table only the masked key columns are
factorized. Either way the result equals grouping a filtered copy —
same groups, same order, same key values — while representatives stay
row indices into the unfiltered table, so no column is ever copied
just to be grouped.

``GROUP BY a, b WITH CUBE`` executes one grouping per subset of
``{a, b}`` (Hive semantics) and stacks the results; non-grouped key
columns take the marker value :data:`ALL_MARKER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs import default_tracer
from .aggregates import compute_aggregate
from .groupcache import default_group_code_cache
from .schema import DType
from .table import Column, Table

__all__ = [
    "ALL_MARKER",
    "GroupKeys",
    "factorize",
    "factorize_hash",
    "factorize_sort",
    "compute_group_keys",
    "compute_group_keys_sorted",
    "group_by_aggregate",
    "cube_grouping_sets",
]

#: Placeholder for "all values" in CUBE output rows (Hive prints NULL).
ALL_MARKER = "<ALL>"

#: Largest combined-code space the hash path can represent. Beyond this
#: the per-column code multiply would wrap int64 and alias distinct
#: keys, so grouping routes to the sort path instead.
_MAX_COMBINED_KEYSPACE = np.iinfo(np.int64).max

#: Cost rule for the direct-addressing kernel: hash when the integer
#: value range spans at most ``max(_HASH_DOMAIN_MIN, factor * n)``
#: slots. Dictionary codes and combined group codes are dense, so they
#: always qualify; sparse raw-integer keys (ids, epochs) qualify while
#: the LUT stays cache-friendly relative to the row count.
_HASH_DOMAIN_FACTOR = 4
_HASH_DOMAIN_MIN = 1 << 16

#: Absolute LUT ceiling for a *direct* ``factorize_hash`` call (~1 GiB
#: of int64 slots). The router's relative rule is stricter; this guards
#: explicit calls against pathological sparse domains.
_HASH_DOMAIN_LIMIT = 1 << 27


def factorize(arr: np.ndarray):
    """Dense codes + first-occurrence row index for each distinct value.

    Returns ``(codes, first_index)`` where ``codes`` is int64 in
    ``[0, k)`` and ``first_index[j]`` is a row whose value has code ``j``.
    Codes are assigned in ascending value order, identically by both
    kernels; this router picks the hash kernel when the cost rule
    allows and the sort kernel otherwise.
    """
    arr = np.asarray(arr)
    plan = _hash_plan(arr)
    if plan is not None:
        return _factorize_direct(*plan)
    return factorize_sort(arr)


def factorize_sort(arr: np.ndarray):
    """Sort-based kernel: ``np.unique`` (O(n log n)).

    Handles every dtype (floats with NaN, objects); the fallback when
    :func:`_hash_plan` declines.
    """
    uniques, first_index, codes = np.unique(
        arr, return_index=True, return_inverse=True
    )
    return codes.astype(np.int64), first_index.astype(np.int64, copy=False)


def factorize_hash(arr: np.ndarray):
    """Hash kernel: O(n) direct addressing over the integer key domain.

    Only defined for integer-kind arrays (bool/int/uint — which includes
    dictionary string codes and combined group codes); raises
    ``TypeError`` otherwise, and ``ValueError`` when the value range is
    too sparse to direct-address (> :data:`_HASH_DOMAIN_LIMIT` slots).
    Use :func:`factorize` unless a test needs to force this kernel.
    """
    arr = np.asarray(arr)
    if arr.dtype.kind not in "biu":
        raise TypeError(
            f"factorize_hash needs an integer-kind array, got {arr.dtype}"
        )
    if len(arr) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if arr.dtype.kind == "b":
        arr = arr.view(np.int8)
    lo = int(arr.min())
    domain = int(arr.max()) - lo + 1
    if domain > _HASH_DOMAIN_LIMIT:
        raise ValueError(
            f"value range {domain} too sparse to direct-address "
            f"(limit {_HASH_DOMAIN_LIMIT}); use factorize_sort"
        )
    return _factorize_direct(arr, lo, domain)


def _hash_plan(arr: np.ndarray):
    """``(arr, lo, domain)`` when the cost rule picks the hash kernel,
    else ``None``. Computes min/max once so the kernel does not rescan."""
    if arr.dtype.kind not in "biu" or len(arr) == 0:
        return None
    if arr.dtype.kind == "b":
        arr = arr.view(np.int8)
    lo = int(arr.min())
    domain = int(arr.max()) - lo + 1
    budget = max(_HASH_DOMAIN_MIN, _HASH_DOMAIN_FACTOR * len(arr))
    if domain > min(budget, _HASH_DOMAIN_LIMIT):
        return None
    return arr, lo, domain


def _factorize_direct(arr: np.ndarray, lo: int, domain: int):
    """Direct-addressing factorize: one presence LUT over ``[lo, hi]``.

    ``np.flatnonzero(present)`` yields the distinct offsets in ascending
    order, so codes come out in the same order ``np.unique`` would
    assign them. First occurrences are recovered with one reversed fancy
    assignment: writing row indices back-to-front leaves the *smallest*
    row index in each slot (duplicate-index assignment keeps the last
    write).
    """
    n = len(arr)
    # Subtraction cannot wrap: every offset is < domain, which the
    # caller has bounded well inside int64.
    offsets = (arr - lo).astype(np.int64, copy=False)
    present = np.zeros(domain, dtype=np.bool_)
    present[offsets] = True
    hits = np.flatnonzero(present)
    lut = np.empty(domain, dtype=np.int64)
    lut[hits] = np.arange(len(hits), dtype=np.int64)
    codes = lut[offsets]
    first_index = np.empty(len(hits), dtype=np.int64)
    first_index[codes[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    return codes, first_index


@dataclass
class GroupKeys:
    """Result of factorizing one or more key columns jointly."""

    by: tuple
    gids: np.ndarray  # int64 per row, dense 0..num_groups-1
    num_groups: int
    representative: np.ndarray  # one source-row index per group

    def key_column(self, table: Table, name: str) -> Column:
        """Key values per group (length ``num_groups``) for one by-column."""
        src = table.column(name)
        return src.take(self.representative)

    def key_tuples(self, table: Table) -> list:
        """Decoded ``(v1, v2, ...)`` per group, aligned with group ids."""
        decoded = [
            self.key_column(table, name).decode() for name in self.by
        ]
        return list(zip(*decoded)) if decoded else [()] * self.num_groups


def compute_group_keys(
    table: Table, by: Sequence[str], mask: np.ndarray | None = None
) -> GroupKeys:
    """Jointly factorize ``by`` columns into dense group ids.

    With a boolean row ``mask``, group only the rows it keeps (see
    :func:`_masked_group_keys`): ``gids`` has one entry per kept row and
    ``representative`` indexes the unfiltered ``table``.

    Keys whose exact combined code space does not fit in int64 are
    grouped by a lexsort over their per-column codes instead (identical
    output), so the combined-code multiply can never wrap and alias
    distinct keys. Key width alone never picks the lexsort: combined
    codes stay faster while they fit.

    Tables stamped with a ``cache_token`` (immutable published sample
    versions — see :mod:`repro.engine.groupcache`) are served from the
    per-version group-code cache: a warm hit returns the stored
    :class:`GroupKeys` without opening an ``engine.factorize`` span,
    annotating the enclosing span with ``factorize.cached`` instead.
    """
    by = tuple(by)
    if mask is not None:
        return _masked_group_keys(table, by, mask, compute_group_keys)
    n = table.num_rows
    if not by:
        return _single_group(n)
    token = getattr(table, "cache_token", None)
    cache = default_group_code_cache() if token is not None else None
    if cache is not None:
        cached = cache.get(token, by)
        if cached is not None:
            default_tracer().annotate(**{"factorize.cached": True})
            return cached
    with default_tracer().span("engine.factorize", rows=n, keys=len(by)):
        all_codes = []
        cardinalities = []
        keyspace = 1  # python int: exact, no wraparound while checking
        for name in by:
            codes, first_index = factorize(table.column(name).data)
            all_codes.append(codes)
            # Codes are dense, so the unique count IS the cardinality —
            # computed once here, reused for the combine below.
            card = len(first_index) if len(codes) else 1
            cardinalities.append(card)
            keyspace *= card
        if keyspace > _MAX_COMBINED_KEYSPACE:
            result = _group_keys_from_codes(by, all_codes, n)
        else:
            combined = all_codes[0]
            for codes, card in zip(all_codes[1:], cardinalities[1:]):
                combined = combined * card + codes
            gids, first_index = factorize(combined)
            result = GroupKeys(
                by=by,
                gids=gids,
                num_groups=len(first_index),
                representative=first_index,
            )
    if cache is not None:
        cache.put(token, by, result)
    return result


def compute_group_keys_sorted(
    table: Table, by: Sequence[str], mask: np.ndarray | None = None
) -> GroupKeys:
    """Always-lexsort reference for :func:`compute_group_keys`.

    Instead of combining per-column codes into one hashable key (which
    multiplies cardinalities and can overflow int64 for wide keys), rows
    are lexsorted by their per-column codes and group boundaries read
    off the sorted order. Produces *identical* output to the hash path:
    the same dense group ids in ascending lexicographic key order and
    the same first-occurrence representatives (lexsort is stable),
    with or without a row ``mask``.
    """
    by = tuple(by)
    if mask is not None:
        return _masked_group_keys(table, by, mask, compute_group_keys_sorted)
    n = table.num_rows
    if not by or n == 0:
        return compute_group_keys(table, by)
    codes = [factorize(table.column(name).data)[0] for name in by]
    return _group_keys_from_codes(by, codes, n)


def _single_group(n: int) -> GroupKeys:
    """Keyless grouping of ``n`` rows: one group unless there are none."""
    return GroupKeys(
        by=(),
        gids=np.zeros(n, dtype=np.int64),
        num_groups=1 if n > 0 else 0,
        representative=np.zeros(min(n, 1), dtype=np.int64),
    )


def _masked_group_keys(table: Table, by: tuple, mask, kernel) -> GroupKeys:
    """Group the rows ``mask`` keeps without copying the table.

    On a stamped table the cached unfiltered :class:`GroupKeys` are
    compacted: a ``bincount`` presence vector marks the groups that
    keep a row and its ``cumsum`` renumbers them densely. Unfiltered
    ids ascend in key order, so the compacted ids do too — exactly the
    ids a filtered copy would factorize to. Any other table factorizes
    only its masked key columns with ``kernel``. Representatives are
    row indices into the unfiltered ``table`` that carry each group's
    key values; on the cached path that is the group's first
    unfiltered row, which the mask may drop.
    """
    mask = np.asarray(mask, dtype=np.bool_)
    if not by:
        return _single_group(int(np.count_nonzero(mask)))
    if (
        kernel is compute_group_keys
        and getattr(table, "cache_token", None) is not None
    ):
        full = compute_group_keys(table, by)
        kept_gids = full.gids[np.flatnonzero(mask)]
        present = np.bincount(kept_gids, minlength=full.num_groups) > 0
        num_groups = int(np.count_nonzero(present))
        if num_groups < full.num_groups:
            dense = np.cumsum(present, dtype=np.int64) - 1
            kept_gids = dense[kept_gids]
        return GroupKeys(
            by=by,
            gids=kept_gids,
            num_groups=num_groups,
            representative=full.representative[present],
        )
    rows = np.flatnonzero(mask)
    keyed = Table({name: table.column(name).take(rows) for name in by})
    keys = kernel(keyed, by)
    return GroupKeys(
        by=by,
        gids=keys.gids,
        num_groups=keys.num_groups,
        representative=rows[keys.representative],
    )


def _group_keys_from_codes(by: tuple, codes: list, n: int) -> GroupKeys:
    """Sort-based grouping over pre-factorized per-column codes."""
    if n == 0:
        return GroupKeys(
            by=by,
            gids=np.zeros(0, dtype=np.int64),
            num_groups=0,
            representative=np.zeros(0, dtype=np.int64),
        )
    # lexsort: last key is primary, so reverse to make by[0] primary.
    order = np.lexsort(tuple(reversed(codes)))
    stacked = np.stack([c[order] for c in codes], axis=0)
    change = np.empty(n, dtype=np.bool_)
    change[0] = True
    if n > 1:
        change[1:] = np.any(stacked[:, 1:] != stacked[:, :-1], axis=0)
    segment = np.cumsum(change) - 1
    gids = np.empty(n, dtype=np.int64)
    gids[order] = segment
    starts = np.flatnonzero(change)
    return GroupKeys(
        by=by,
        gids=gids,
        num_groups=len(starts),
        representative=order[starts],
    )


def group_by_aggregate(
    table: Table,
    by: Sequence[str],
    aggregates: Sequence[tuple],
    weights: np.ndarray | None = None,
) -> Table:
    """Grouped aggregation.

    ``aggregates`` is a sequence of ``(output_name, func, values)`` where
    ``values`` is a numpy array aligned with the table rows (or ``None``
    for ``COUNT(*)``). Returns a table with the key columns followed by
    one float64 column per aggregate.
    """
    keys = compute_group_keys(table, by)
    out = {}
    for name in keys.by:
        out[name] = keys.key_column(table, name)
    for out_name, func, values in aggregates:
        result = compute_aggregate(
            func, values, keys.gids, keys.num_groups, weights
        )
        out[out_name] = Column(DType.FLOAT64, result)
    return Table(out, name=table.name)


def cube_grouping_sets(attributes: Sequence[str]) -> list:
    """All subsets of ``attributes`` in Hive's WITH CUBE order.

    The full set comes first, then subsets by decreasing size, then the
    empty grouping (grand total).
    """
    attrs = tuple(attributes)
    n = len(attrs)
    sets = []
    for size in range(n, -1, -1):
        sets.extend(
            tuple(a for j, a in enumerate(attrs) if mask >> j & 1)
            for mask in _masks_of_size(n, size)
        )
    return sets


def _masks_of_size(n: int, size: int):
    return sorted(m for m in range(1 << n) if bin(m).count("1") == size)
