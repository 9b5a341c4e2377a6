"""Per-version group-code cache.

Sample versions and registered base tables are immutable: once a
:class:`~repro.engine.table.Table` is published under a token, its rows
never change, so the :class:`~repro.engine.groupby.GroupKeys` computed
for any group-by column tuple can be reused verbatim by every later
query of the same shape — the same idiom as the shape-keyed plan cache
in ``aqp/session.py``, one layer down.

The cache is process-wide and keyed by a *cache token* plus the
group-by column tuple. Two kinds of table carry a token:

* published sample versions, stamped ``(scope, sample_name, version)``
  by the warehouse. The scope disambiguates services that share one
  process but serve different row sets under the same sample name and
  version — in-process shard workers each see only their shard's
  slice, so each worker's :class:`~repro.warehouse.service.WarehouseService`
  stamps tables with its own scope (``shard-NN``);
* registered base tables, stamped ``("table", name, serial)`` by
  :class:`~repro.aqp.session.AQPSession` with a process-wide serial, so
  a re-registration (such as a refresh's grown table) is a new key.

Filtered queries share the unfiltered entry: ``compute_group_keys``
with a row mask compacts the cached ids instead of re-factorizing a
filtered copy. Other derived tables (take/select/...) are new objects
whose token defaults to ``None`` and bypass the cache, which makes
staleness impossible by construction.

Invalidation is belt and braces: the version or serial inside the token
already isolates replaced tables (a new token is a new key; old entries
age out of the LRU bound), and ``AQPSession.clear_plan_cache()`` —
called on every table/sample registration — additionally clears the
whole cache. The LRU is bounded both by entry count and by the bytes
its id arrays hold (:data:`MAX_CACHE_BYTES`): one base-table entry
costs about 8 bytes per row.

Lookups and stores are counted in
``repro_groupcode_cache_total{result=hit|miss|evict}``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from ..obs import default_registry

__all__ = ["GroupCodeCache", "MAX_CACHE_BYTES", "default_group_code_cache"]

#: Byte ceiling on the arrays the cache pins (``gids`` plus
#: ``representative`` of every entry); least recently used entries are
#: evicted until the total fits. An entry larger than the ceiling on
#: its own is still kept, alone, until the next store.
MAX_CACHE_BYTES = 256 << 20

_CACHE_COUNTER = default_registry().counter(
    "repro_groupcode_cache_total",
    "Group-code cache lookups and evictions by result",
    ["result"],
)


class GroupCodeCache:
    """Bounded, thread-safe LRU of ``GroupKeys`` per immutable version.

    Keys are ``(token, by)`` where ``token`` identifies one immutable
    table incarnation and ``by`` is the group-by column tuple. Values
    are shared, never copied — ``GroupKeys`` consumers treat the arrays
    as read-only (the engine never mutates gids/representatives).
    Eviction keeps at most ``capacity`` entries and at most
    :data:`MAX_CACHE_BYTES` of id arrays.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, token: Tuple, by: Tuple[str, ...]):
        key = (token, tuple(by))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                _CACHE_COUNTER.inc(result="miss")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            _CACHE_COUNTER.inc(result="hit")
            return entry

    def put(self, token: Tuple, by: Tuple[str, ...], keys) -> None:
        key = (token, tuple(by))
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= _entry_bytes(previous)
            self._entries[key] = keys
            self._bytes += _entry_bytes(keys)
            while len(self._entries) > self.capacity or (
                self._bytes > MAX_CACHE_BYTES and len(self._entries) > 1
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= _entry_bytes(evicted)
                self._evictions += 1
                _CACHE_COUNTER.inc(result="evict")

    def invalidate(self, sample_name: Optional[str] = None) -> None:
        """Drop entries for one sample name (any scope/version), or all."""
        with self._lock:
            if sample_name is None:
                self._entries.clear()
                self._bytes = 0
                return
            stale = [
                key
                for key in self._entries
                if len(key[0]) >= 2 and key[0][1] == sample_name
            ]
            for key in stale:
                self._bytes -= _entry_bytes(self._entries.pop(key))

    def counters(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "bytes": self._bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _entry_bytes(keys) -> int:
    """Bytes of the id arrays one cached ``GroupKeys`` pins."""
    return sum(
        getattr(getattr(keys, field, None), "nbytes", 0)
        for field in ("gids", "representative")
    )


_DEFAULT = GroupCodeCache()


def default_group_code_cache() -> GroupCodeCache:
    """The process-wide cache consulted by ``compute_group_keys``."""
    return _DEFAULT
