"""Stratum-hash sharding of stratified samples.

A CVOPT sample is a union of disjoint per-stratum SRS draws, and every
per-group estimator the engine computes is a function of per-row
moments — ``(count, total, m2)`` merge exactly over any partition of
the rows (:meth:`~repro.engine.statistics.ColumnStats.combine`; "A
Sampling Algebra for Aggregate Estimation", arXiv 1307.0193).
Partitioning the sample *by stratum* therefore loses nothing: each
shard holds complete strata with their exact Horvitz-Thompson weights
and per-stratum moments, and the union of the shards is bit-for-bit
the unsharded sample. That is the property the
scatter-gather front relies on: per-group partials from each shard
merge losslessly, and the contract CV math runs unchanged on the
merged moments.

This module provides the three pieces every sharded component shares:

* :func:`shard_of_key` — the deterministic ``stratum key -> shard``
  partitioner. It hashes the store's canonical tagged-JSON key encoding
  with BLAKE2 (never Python's ``hash``, which is salted per process),
  so front, workers, CLI and any future node agree on placement
  without coordination.
* :func:`split_sample` / :func:`merge_shard_allocations` — exact
  partition of a built :class:`~repro.core.sample.StratifiedSample`
  into per-shard samples, and the inverse merge of shard allocations
  (keys, populations, sizes, per-column moments) used by the front for
  routing and contracts.
* :class:`ShardedSampleStore` — one
  :class:`~repro.warehouse.store.SampleStore` per ``shard-NN/``
  sub-directory (each with its own manifest/lock protocol, unchanged),
  plus a root-level ``shards.json`` recording ``{count, scheme}`` so
  every process opens the store with the same topology.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.sample import (
    STRATUM_COLUMN,
    Allocation,
    StratifiedSample,
)
from ..engine.groupby import compute_group_keys
from ..engine.schema import DType
from ..engine.statistics import ColumnStats, StrataStatistics
from ..engine.table import Column, Table
from .store import SampleStore, _encode_key

__all__ = [
    "SHARD_META_FILE",
    "SHARD_SCHEME",
    "ShardedSampleStore",
    "merge_shard_allocations",
    "partition_table",
    "shard_of_key",
    "split_sample",
]

#: Name of the partitioning scheme recorded in ``shards.json``; bump it
#: if the hash or encoding ever changes so mixed topologies are caught.
SHARD_SCHEME = "stratum-hash-v1"

#: Root-level topology record of a sharded store.
SHARD_META_FILE = "shards.json"


def shard_of_key(key: Sequence, num_shards: int) -> int:
    """Deterministic shard index for one stratum key tuple.

    Hashes the store's canonical tagged-JSON encoding of the key with
    BLAKE2b — stable across processes, interpreter restarts and
    platforms (``PYTHONHASHSEED`` never enters the picture), so every
    component maps a stratum to the same shard forever.
    """
    if num_shards <= 1:
        return 0
    payload = json.dumps(
        _encode_key(tuple(key)), separators=(",", ":")
    ).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


def shards_of_keys(keys: Sequence, num_shards: int) -> np.ndarray:
    """Vector of shard indices, one per stratum key."""
    return np.asarray(
        [shard_of_key(k, num_shards) for k in keys], dtype=np.int64
    )


def _slice_stats(
    stats: Optional[StrataStatistics], idx: np.ndarray, by, keys
) -> Optional[StrataStatistics]:
    if stats is None:
        return None
    return StrataStatistics(
        by=tuple(by),
        keys=[keys[i] for i in idx],
        sizes=np.asarray(stats.sizes)[idx],
        columns={name: cs.take(idx) for name, cs in stats.columns.items()},
    )


def split_sample(
    sample: StratifiedSample, num_shards: int
) -> List[StratifiedSample]:
    """Partition a sample into ``num_shards`` per-shard samples.

    Strata are assigned whole (by :func:`shard_of_key`), so each shard
    keeps exact populations, sizes, HT weights and per-column moments
    for its strata; stratum ids are re-densified per shard. The union
    of the returned samples is exactly ``sample``. A shard that owns no
    strata gets a valid empty sample (same schema) so the topology
    stays uniform.
    """
    if num_shards <= 1:
        return [sample]
    alloc = sample.allocation
    assignment = shards_of_keys(alloc.keys, num_shards)
    gids = (
        sample.table.column(STRATUM_COLUMN).data.astype(np.int64)
        if STRATUM_COLUMN in sample.table
        else np.zeros(sample.table.num_rows, dtype=np.int64)
    )
    pieces = []
    for shard in range(num_shards):
        strata = np.flatnonzero(assignment == shard)
        remap = np.full(max(alloc.num_strata, 1), -1, dtype=np.int64)
        remap[strata] = np.arange(len(strata))
        mask = (
            remap[gids] >= 0
            if alloc.num_strata
            else np.zeros(len(gids), dtype=bool)
        )
        rows = sample.table.filter(mask)
        if STRATUM_COLUMN in rows:
            rows = rows.with_column(
                STRATUM_COLUMN,
                Column(DType.INT64, remap[gids[mask]]),
            )
        sub_alloc = Allocation(
            by=alloc.by,
            keys=[alloc.keys[i] for i in strata],
            populations=alloc.populations[strata],
            sizes=alloc.sizes[strata],
            scores=(
                alloc.scores[strata] if alloc.scores is not None else None
            ),
            stats=_slice_stats(alloc.stats, strata, alloc.by, alloc.keys),
        )
        pieces.append(
            StratifiedSample(
                table=rows,
                allocation=sub_alloc,
                method=sample.method,
                source_rows=int(sub_alloc.populations.sum()),
                # A shard's budget is its current allocation: refresh
                # re-balances within the shard against that bound;
                # cross-shard re-allocation happens only on a central
                # rebuild.
                budget=max(1, int(sub_alloc.sizes.sum())),
            )
        )
    return pieces


def merge_shard_allocations(
    allocations: Sequence[Allocation],
) -> Allocation:
    """Exact inverse of :func:`split_sample` at the metadata level.

    Concatenates the disjoint per-shard strata and re-sorts them by key
    so the merged view is independent of shard count; populations,
    sizes and per-column ``(count, total, m2)`` moments are taken
    verbatim (strata are never split across shards, so no arithmetic —
    and no floating-point error — is involved).
    """
    allocations = [a for a in allocations if a is not None]
    if not allocations:
        raise ValueError("no shard allocations to merge")
    by = allocations[0].by
    keys: list = []
    populations: list = []
    sizes: list = []
    scores: list = []
    have_scores = all(a.scores is not None for a in allocations)
    have_stats = all(a.stats is not None for a in allocations)
    for alloc in allocations:
        if tuple(alloc.by) != tuple(by):
            raise ValueError(
                "shard allocations stratify differently: "
                f"{tuple(alloc.by)} vs {tuple(by)}"
            )
        keys.extend(tuple(k) for k in alloc.keys)
        populations.extend(int(x) for x in alloc.populations)
        sizes.extend(int(x) for x in alloc.sizes)
        if have_scores:
            scores.extend(float(x) for x in alloc.scores)
    try:
        order = sorted(range(len(keys)), key=lambda i: _sort_key(keys[i]))
    except TypeError:  # unorderable mixed-type keys: keep shard order
        order = list(range(len(keys)))
    keys = [keys[i] for i in order]
    stats = None
    if have_stats:
        stats = StrataStatistics(
            by=tuple(by),
            keys=keys,
            sizes=np.asarray([sizes[i] for i in order], dtype=np.int64),
            columns={
                name: ColumnStats.concat(
                    [a.stats.columns[name] for a in allocations]
                ).take(order)
                for name in allocations[0].stats.columns
            },
        )
    return Allocation(
        by=tuple(by),
        keys=keys,
        populations=np.asarray(populations, dtype=np.int64)[order],
        sizes=np.asarray(sizes, dtype=np.int64)[order],
        scores=(
            np.asarray(scores, dtype=np.float64)[order]
            if have_scores
            else None
        ),
        stats=stats,
    )


def _sort_key(key: tuple) -> tuple:
    # None sorts first within its column; otherwise natural ordering.
    return tuple((v is not None, v) for v in key)


def partition_table(
    table: Table, by: Sequence[str], num_shards: int
) -> List[Table]:
    """Split rows by the stratum hash of their ``by``-key.

    This is how refresh batches are routed: each row goes to the shard
    that owns its stratum, so per-shard incremental maintenance sees
    exactly the rows the unsharded maintainer would have folded into
    those strata.
    """
    if num_shards <= 1:
        return [table]
    keys = compute_group_keys(table, by)
    if keys.num_groups == 0:
        return [table.filter(np.zeros(table.num_rows, dtype=bool))] * (
            num_shards
        )
    group_shard = shards_of_keys(keys.key_tuples(table), num_shards)
    row_shard = group_shard[keys.gids]
    return [table.filter(row_shard == s) for s in range(num_shards)]


class ShardedSampleStore:
    """N per-shard :class:`SampleStore` sub-stores under one root.

    Layout::

        root/
          shards.json          {"format": 1, "shards": {"count": N,
                                "scheme": "stratum-hash-v1"}}
          shard-00/            a full SampleStore (manifest, locks, ...)
          shard-01/
          ...

    Each sub-store keeps the complete PR-4 write protocol (fsync'd
    manifest commits, advisory file locks, pluggable backends), so
    shard workers in different processes coordinate exactly like
    independent stores — because they are.

    Opening an existing root reads the recorded topology; passing a
    conflicting ``shards`` count raises rather than silently re-hashing
    strata into the wrong sub-stores.
    """

    def __init__(
        self,
        root,
        shards: Optional[int] = None,
        backend=None,
        **store_kwargs,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        meta_path = self.root / SHARD_META_FILE
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            recorded = int(meta["shards"]["count"])
            scheme = meta["shards"].get("scheme", SHARD_SCHEME)
            if scheme != SHARD_SCHEME:
                raise ValueError(
                    f"store {self.root} uses partition scheme {scheme!r}; "
                    f"this build understands {SHARD_SCHEME!r}"
                )
            if shards is not None and int(shards) != recorded:
                raise ValueError(
                    f"store {self.root} is sharded {recorded} ways; "
                    f"requested {shards}"
                )
            count = recorded
        else:
            if shards is None:
                raise ValueError(
                    f"{meta_path} not found and no shard count given"
                )
            count = int(shards)
            if count < 1:
                raise ValueError("shard count must be >= 1")
            tmp = meta_path.with_suffix(".tmp")
            tmp.write_text(
                json.dumps(
                    {
                        "format": 1,
                        "shards": {"count": count, "scheme": SHARD_SCHEME},
                    },
                    indent=2,
                )
            )
            tmp.replace(meta_path)
        self.num_shards = count
        self.stores = [
            SampleStore(
                self.shard_root(i), backend=backend, **store_kwargs
            )
            for i in range(count)
        ]

    @staticmethod
    def is_sharded_root(root) -> bool:
        """Whether ``root`` holds a sharded store topology record."""
        return (Path(root) / SHARD_META_FILE).exists()

    @staticmethod
    def shard_count(root) -> Optional[int]:
        """Recorded shard count of ``root`` (None if unsharded)."""
        meta_path = Path(root) / SHARD_META_FILE
        if not meta_path.exists():
            return None
        return int(json.loads(meta_path.read_text())["shards"]["count"])

    def shard_root(self, index: int) -> Path:
        return self.root / f"shard-{index:02d}"

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(
        self,
        name: str,
        sample: StratifiedSample,
        table_name: Optional[str] = None,
        lineage: Optional[Dict] = None,
        extra: Optional[Dict] = None,
        window: Optional[Dict] = None,
    ) -> List[str]:
        """Split ``sample`` by stratum hash and commit one piece per
        shard; returns the new version id of each shard (aligned with
        shard index). A ``window`` block tags every piece: a window's
        strata shard exactly like an all-of-history sample's (the two
        partitions are orthogonal)."""
        pieces = split_sample(sample, self.num_shards)
        versions = []
        for index, (store, piece) in enumerate(zip(self.stores, pieces)):
            tagged = dict(extra or {})
            tagged["shard"] = {
                "index": index,
                "count": self.num_shards,
                "scheme": SHARD_SCHEME,
            }
            piece_lineage = dict(lineage) if lineage else lineage
            if piece_lineage and "base_rows" in piece_lineage:
                # Each shard covers only its strata's populations; its
                # lineage must say so, or per-shard staleness ratios
                # (ingested / base) — and their sum at the front —
                # would be divided by the whole table N times over.
                piece_lineage["base_rows"] = piece.source_rows
            versions.append(
                store.put(
                    name,
                    piece,
                    table_name=table_name,
                    lineage=piece_lineage,
                    extra=tagged,
                    window=window,
                )
            )
        return versions

    def delete(self, name: str) -> None:
        for store in self.stores:
            store.delete(name)

    def prune(self, name: str, keep: int) -> List[List[str]]:
        return [store.prune(name, keep) for store in self.stores]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for store in self.stores:
            for name in store.names():
                seen.setdefault(name, None)
        return list(seen)

    def get_shards(self, name: str) -> List:
        """The current :class:`~repro.warehouse.store.StoredSample` of
        ``name`` on every shard (aligned with shard index)."""
        return [store.get(name) for store in self.stores]

    def merged_allocation(self, name: str) -> Allocation:
        """Routing-grade merged view of ``name`` across all shards."""
        return merge_shard_allocations(
            [stored.sample.allocation for stored in self.get_shards(name)]
        )

    def stats(self) -> List[List]:
        """Per-shard store accounting (list of ``StoreEntryStats`` rows
        per shard, aligned with shard index)."""
        return [store.stats() for store in self.stores]
