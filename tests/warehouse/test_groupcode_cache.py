"""Group-code cache correctness: identical answers across hits,
invalidation on hot-swap and ``clear_plan_cache()``, no stale codes for
a re-registered base table, LRU bounds (entries and bytes) under
eviction, and exactness under 8-thread contention (mirrors the
``tests/obs/test_metrics.py`` thread-safety style). Ends with the
sharded equivalence check: warm per-shard caches must not change a
single merged number."""

import os
import threading

import numpy as np
import pytest

from repro.aqp.session import AQPSession
from repro.engine import groupcache
from repro.engine.groupby import GroupKeys, compute_group_keys
from repro.engine.groupcache import GroupCodeCache, default_group_code_cache
from repro.engine.table import Table
from repro.obs import default_tracer
from repro.warehouse import ShardedWarehouseService, WarehouseService

_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "npz")
_SHARDS = int(os.environ.get("REPRO_TEST_SHARDS", "2"))


def make_base(n=4000, seed=5):
    rng = np.random.default_rng(seed)
    return Table.from_pydict(
        {
            "g": [f"g{i % 9}" for i in range(n)],
            "h": [f"h{i % 4}" for i in range(n)],
            "x": rng.normal(100.0, 15.0, n),
        },
        name="T",
    )


def build_service(root, table, **kwargs):
    svc = WarehouseService(
        root, {"T": table}, backend=_BACKEND, **kwargs
    )
    svc.build("s", "T", ["g", "h"], ["x"], budget=900, seed=0)
    return svc


SQL_A = "SELECT g, AVG(x) a FROM T GROUP BY g"
SQL_B = "SELECT g, SUM(x) s, COUNT(*) c FROM T GROUP BY g"


class TestCacheHitsAnswerIdentically:
    def test_cold_and_warm_answers_match(self, tmp_path):
        svc = build_service(tmp_path / "wh", make_base())
        cache = default_group_code_cache()
        cold = svc.query(SQL_A).table.to_pydict()  # miss: populates
        before = cache.counters()
        # Different SQL, same group keys: skips the answer cache but
        # hits the group-code cache.
        warm_b = svc.query(SQL_B).table.to_pydict()
        after = cache.counters()
        assert after["hits"] > before["hits"]
        warm_a = svc.query(SQL_A).table.to_pydict()
        assert warm_a == cold
        # Re-derive SQL_B cold for comparison: clearing re-factorizes.
        svc._session.clear_plan_cache()
        svc._cache.clear()
        assert svc.query(SQL_B).table.to_pydict() == warm_b

    def test_direct_group_keys_identical_after_hit(self, tmp_path):
        svc = build_service(tmp_path / "wh", make_base())
        sample_table = svc.snapshot_sample("s")[0].table
        assert sample_table.cache_token is not None
        first = compute_group_keys(sample_table, ("g",))
        again = compute_group_keys(sample_table, ("g",))
        assert again is first  # the cached object itself
        assert np.array_equal(first.gids, again.gids)

    def test_derived_tables_bypass_the_cache(self, tmp_path):
        svc = build_service(tmp_path / "wh", make_base())
        sample_table = svc.snapshot_sample("s")[0].table
        compute_group_keys(sample_table, ("g",))
        filtered = sample_table.filter(
            np.ones(sample_table.num_rows, dtype=bool)
        )
        assert filtered.cache_token is None
        keys = compute_group_keys(filtered, ("g",))
        cached = compute_group_keys(sample_table, ("g",))
        assert keys is not cached

    def test_warm_hit_skips_factorize_span(self, tmp_path):
        svc = build_service(tmp_path / "wh", make_base())
        svc.query(SQL_A)  # populate
        with default_tracer().trace("q") as t:
            svc.query(SQL_B)  # warm keys, uncached answer
        d = t.trace.to_dict()
        names = [s["name"] for s in d["spans"]]
        assert "engine.factorize" not in names
        assert any(
            s["tags"].get("factorize.cached") for s in d["spans"]
        )


class TestInvalidation:
    def test_version_hot_swap_invalidates(self, tmp_path):
        base = make_base()
        svc = build_service(tmp_path / "wh", base)
        token_v1 = svc.snapshot_sample("s")[0].table.cache_token
        cold = svc.query(SQL_B).table.to_pydict()
        rng = np.random.default_rng(99)
        batch = Table.from_pydict(
            {
                "g": ["g_new"] * 500,
                "h": ["h0"] * 500,
                "x": rng.normal(500.0, 1.0, 500),
            },
            name="T",
        )
        svc.refresh("s", batch, seed=1)
        token_v2 = svc.snapshot_sample("s")[0].table.cache_token
        assert token_v2 != token_v1  # version is part of the key
        # clear_plan_cache ran during the swap: nothing stale survives.
        assert len(default_group_code_cache()) == 0
        fresh = svc.query(SQL_B).table.to_pydict()
        assert fresh != cold  # the new stratum is visible, not stale
        assert "g_new" in fresh["g"]

    def test_clear_plan_cache_invalidates(self, tmp_path):
        svc = build_service(tmp_path / "wh", make_base())
        svc.query(SQL_A)
        cache = default_group_code_cache()
        assert len(cache) > 0
        svc._session.clear_plan_cache()
        assert len(cache) == 0

    def test_invalidate_by_sample_name(self):
        cache = GroupCodeCache(capacity=8)
        cache.put(("", "a", "v1"), ("g",), object())
        cache.put(("shard-00", "a", "v2"), ("g",), object())
        cache.put(("", "b", "v1"), ("g",), object())
        cache.invalidate("a")
        assert len(cache) == 1
        assert cache.get(("", "b", "v1"), ("g",)) is not None


class TestBaseTableStaleness:
    SQL = "SELECT g, COUNT(*) c FROM T WHERE x > 0 GROUP BY g"

    def test_registration_stamps_a_view_not_the_callers_table(self):
        base = make_base()
        session = AQPSession({"T": base})
        assert base.cache_token is None
        token = session.tables["T"].cache_token
        assert token is not None and token[1] == "T"
        session.register_table("T", base)
        assert session.tables["T"].cache_token != token
        assert AQPSession({"T": base}).tables["T"].cache_token != token

    def test_reregistered_table_serves_the_new_rows_groups(self):
        base = make_base()
        session = AQPSession({"T": base})
        first = session.execute(self.SQL).to_pydict()
        old = session.tables["T"]
        old_keys = compute_group_keys(old, ("g",))
        rng = np.random.default_rng(3)
        batch = Table.from_pydict(
            {
                "g": ["g_new"] * 50,
                "h": ["h0"] * 50,
                "x": rng.normal(100.0, 1.0, 50),
            },
            name="T",
        )
        session.register_table("T", base.concat(batch))  # refresh's grow
        # Even if the old table's entry outlived the registration, the
        # new table's token can never reach it.
        default_group_code_cache().put(old.cache_token, ("g",), old_keys)
        grown = session.execute(self.SQL).to_pydict()
        assert "g_new" not in first["g"]
        assert "g_new" in grown["g"]
        assert sum(grown["c"]) == sum(first["c"]) + 50

    def test_warehouse_refresh_grows_exact_answers(self, tmp_path):
        svc = build_service(tmp_path / "wh", make_base())
        before = svc.query(self.SQL, mode="exact").table.to_pydict()
        rng = np.random.default_rng(7)
        batch = Table.from_pydict(
            {
                "g": ["g_new"] * 40,
                "h": ["h1"] * 40,
                "x": rng.normal(100.0, 1.0, 40),
            },
            name="T",
        )
        svc.refresh("s", batch, seed=1)
        after = svc.query(self.SQL, mode="exact").table.to_pydict()
        assert "g_new" not in before["g"]
        assert "g_new" in after["g"]

    def test_inprocess_shard_scopes_never_share_entries(self, tmp_path):
        sharded = ShardedWarehouseService(
            tmp_path / "sharded",
            {"T": make_base()},
            shards=2,
            backend=_BACKEND,
            workers="inprocess",
        )
        try:
            sharded.build("s", "T", ["g", "h"], ["x"], budget=900, seed=0)
            cache = default_group_code_cache()
            cache.invalidate()
            sharded.query("SELECT g, AVG(x) a FROM T WHERE x > 90 GROUP BY g")
            sample_tokens = [
                token for token, _ in list(cache._entries)
                if token[1] == "s"
            ]
            scopes = {token[0] for token in sample_tokens}
            assert scopes == {"shard-00", "shard-01"}
            # Same sample name and version, one entry per shard scope.
            assert len(sample_tokens) == len(set(sample_tokens)) == 2
        finally:
            sharded.close()


def _keys_of_bytes(nbytes):
    rows = nbytes // 8
    return GroupKeys(
        by=("g",),
        gids=np.zeros(rows, dtype=np.int64),
        num_groups=1,
        representative=np.zeros(0, dtype=np.int64),
    )


class TestByteEviction:
    def test_byte_bound_evicts_the_oldest_entry(self, monkeypatch):
        monkeypatch.setattr(groupcache, "MAX_CACHE_BYTES", 4096)
        cache = GroupCodeCache(capacity=100)
        cache.put(("", "s", "v1"), ("g",), _keys_of_bytes(1600))
        cache.put(("", "s", "v2"), ("g",), _keys_of_bytes(1600))
        assert cache.counters()["bytes"] == 3200
        cache.put(("", "s", "v3"), ("g",), _keys_of_bytes(1600))
        counters = cache.counters()
        assert counters["size"] == 2
        assert counters["evictions"] == 1
        assert counters["bytes"] == 3200
        assert cache.get(("", "s", "v1"), ("g",)) is None
        assert cache.get(("", "s", "v3"), ("g",)) is not None

    def test_byte_accounting_on_replace_and_invalidate(self):
        cache = GroupCodeCache(capacity=8)
        cache.put(("", "a", "v1"), ("g",), _keys_of_bytes(800))
        cache.put(("", "a", "v1"), ("g",), _keys_of_bytes(160))
        cache.put(("", "b", "v1"), ("g",), _keys_of_bytes(80))
        assert cache.counters()["bytes"] == 240
        cache.invalidate("a")
        assert cache.counters()["bytes"] == 80
        cache.invalidate()
        assert cache.counters()["bytes"] == 0


class TestEviction:
    def test_size_bound_holds_under_eviction(self):
        cache = GroupCodeCache(capacity=4)
        for i in range(12):
            cache.put(("", "s", f"v{i}"), ("g",), i)
        counters = cache.counters()
        assert len(cache) == 4
        assert counters["size"] == 4
        assert counters["evictions"] == 8
        # LRU: the four most recent versions survive.
        for i in range(8):
            assert cache.get(("", "s", f"v{i}"), ("g",)) is None
        for i in range(8, 12):
            assert cache.get(("", "s", f"v{i}"), ("g",)) == i

    def test_get_refreshes_recency(self):
        cache = GroupCodeCache(capacity=2)
        cache.put(("", "s", "v1"), ("g",), 1)
        cache.put(("", "s", "v2"), ("g",), 2)
        cache.get(("", "s", "v1"), ("g",))  # v1 becomes most recent
        cache.put(("", "s", "v3"), ("g",), 3)
        assert cache.get(("", "s", "v1"), ("g",)) == 1
        assert cache.get(("", "s", "v2"), ("g",)) is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            GroupCodeCache(capacity=0)


class TestThreadSafety:
    def test_concurrent_hits_and_misses_are_exact(self):
        # 8 threads hammering a shared cache: every lookup is either a
        # hit or a miss, nothing is lost, and the bound holds throughout.
        cache = GroupCodeCache(capacity=16)
        threads, per_thread = 8, 2000

        def hammer(i):
            for j in range(per_thread):
                token = ("", f"s{i % 2}", f"v{j % 8}")
                if cache.get(token, ("g",)) is None:
                    cache.put(token, ("g",), (i, j))

        ts = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(threads)
        ]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        counters = cache.counters()
        assert counters["hits"] + counters["misses"] == threads * per_thread
        assert counters["size"] <= 16
        assert len(cache) == counters["size"]

    def test_concurrent_queries_share_one_factorization(self, tmp_path):
        svc = build_service(tmp_path / "wh", make_base())
        sample_table = svc.snapshot_sample("s")[0].table
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            results[i] = compute_group_keys(sample_table, ("g", "h"))

        ts = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        reference = results[0]
        for keys in results[1:]:
            assert keys.num_groups == reference.num_groups
            assert np.array_equal(keys.gids, reference.gids)
            assert np.array_equal(
                keys.representative, reference.representative
            )


class TestShardedEquivalence:
    def test_warm_caches_leave_sharded_answers_identical(self, tmp_path):
        # In-process workers share one process-wide cache; the per-shard
        # scope in the token must keep their (same-name, same-version,
        # different-rows) entries apart, so warm repeats merge the same
        # numbers as the plain warehouse.
        base = make_base()
        plain = build_service(tmp_path / "plain", base)
        sharded = ShardedWarehouseService(
            tmp_path / "sharded",
            {"T": base},
            shards=max(_SHARDS, 1),
            backend=_BACKEND,
            workers="inprocess",
        )
        try:
            sharded.build("s", "T", ["g", "h"], ["x"], budget=900, seed=0)
            for sql in (SQL_A, SQL_B):
                expected = plain.query(sql).table.to_pydict()
                first = sharded.query(sql).table.to_pydict()
                sharded._cache.clear()  # force re-merge from partials
                warm = sharded.query(sql).table.to_pydict()
                assert first == warm
                assert set(first["g"]) == set(expected["g"])
        finally:
            sharded.close()
