"""Behaviour both warehouse fronts share through ``WarehouseFront``.

Every case runs once on the plain :class:`WarehouseService` and once on
an in-process :class:`ShardedWarehouseService` (``REPRO_TEST_SHARDS``
shards, default 2; storage backend from ``REPRO_TEST_BACKEND``): the
answer cache and its epoch invalidation, contract reject vs fallback,
argument validation, the introspection key sets, and the two
range/snapshot regressions the shared read path fixed.
"""

import os

import numpy as np
import pytest

from repro.engine.table import Table
from repro.warehouse import (
    AccuracyContractViolation,
    ShardedWarehouseService,
    WarehouseFront,
    WarehouseService,
)

_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "npz")
_SHARDS = int(os.environ.get("REPRO_TEST_SHARDS", "2"))

SQL = "SELECT g, AVG(x) a FROM T GROUP BY g"
HOUR = 3600

SUMMARY_KEYS = {
    "name", "version", "window", "rows", "strata", "by", "columns",
    "primary_column", "staleness", "drift", "drift_by_column",
    "needs_rebuild",
}
HEALTH_KEYS = {"status", "epoch", "tables", "samples", "queries_served"}
SERVING_STATS_KEYS = {
    "epoch", "queries_served", "answer_cache", "groupcode_cache",
    "plan_cache", "tables",
}


def make_base(n=3000, seed=5):
    rng = np.random.default_rng(seed)
    return Table.from_pydict(
        {
            "g": [f"g{i % 9}" for i in range(n)],
            "x": rng.normal(100.0, 15.0, n),
        },
        name="T",
    )


def timestamped_table(first_hour=10, hours=3, per_hour=24):
    """``hours`` hours of rows from ``first_hour * HOUR`` on; nothing
    earlier exists."""
    ts, g, v = [], [], []
    for hour in range(first_hour, first_hour + hours):
        for i in range(per_hour):
            ts.append(hour * HOUR + i * (HOUR // per_hour))
            g.append("A" if i % 3 else "B")
            v.append(float(hour * 100 + i))
    return Table.from_pydict({"g": g, "ts": ts, "v": v}, name="T")


def open_sharded(root, tables):
    return ShardedWarehouseService(
        root, tables, shards=_SHARDS, backend=_BACKEND, workers="inprocess"
    )


def by_group(table):
    keys = table.column("g").decode()
    values = table.column(table.column_names[-1]).decode()
    return dict(zip(keys, values))


@pytest.fixture(params=["plain", "sharded"])
def make_front(request, tmp_path):
    """Factory for one front of the parametrized kind over ``tables``."""
    opened = []

    def make(tables):
        if request.param == "plain":
            return WarehouseService(
                tmp_path / "wh", tables, backend=_BACKEND
            )
        front = open_sharded(tmp_path / "wh", tables)
        opened.append(front)
        return front

    yield make
    for front in opened:
        front.close()


@pytest.fixture()
def front(make_front):
    svc = make_front({"T": make_base()})
    svc.build("s", "T", group_by=["g"], value_columns=["x"], budget=600)
    return svc


def shard_keys(front):
    return {"shards"} if isinstance(front, ShardedWarehouseService) else set()


class TestAnswerCache:
    def test_repeat_query_is_a_cache_hit(self, front):
        first = front.query(SQL)
        served = front.queries_served
        assert front.query(SQL) is first
        assert front.queries_served == served + 1
        contracted = front.query_with_contract(SQL)
        assert front.query_with_contract(SQL) is contracted

    def test_structural_change_bumps_epoch_and_invalidates(self, front):
        first = front.query(SQL)
        contracted = front.query_with_contract(SQL)
        epoch = front.epoch
        front.refresh("s", make_base(200, seed=9), seed=1)
        assert front.epoch > epoch
        assert front.query(SQL) is not first
        assert front.query_with_contract(SQL) is not contracted


class TestContract:
    def test_reject_raises(self, front):
        with pytest.raises(AccuracyContractViolation):
            front.query_with_contract(
                SQL, max_cv=1e-9, on_violation="reject"
            )

    def test_approx_mode_rejects_instead_of_falling_back(self, front):
        with pytest.raises(AccuracyContractViolation):
            front.query_with_contract(SQL, mode="approx", max_cv=1e-9)

    def test_fallback_executes_exactly(self, front):
        answer = front.query_with_contract(SQL, max_cv=1e-9)
        assert answer.contract.executed == "exact"
        assert answer.contract.fallback_exact
        assert answer.contract.satisfied
        exact = front.query(SQL, mode="exact")
        assert by_group(answer.result.table) == pytest.approx(
            by_group(exact.table)
        )

    def test_contract_names_served_version(self, front):
        answer = front.query_with_contract(SQL)
        assert answer.contract.executed == "approximate"
        assert answer.contract.sample_name == "s"
        assert answer.contract.sample_version == (
            front.served_versions()["s"]
        )


class TestValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda f: f.query(SQL, mode="bogus"),
            lambda f: f.query_with_contract(SQL, mode="bogus"),
            lambda f: f.query_with_contract(SQL, on_violation="bogus"),
        ],
        ids=["query-mode", "contract-mode", "contract-on-violation"],
    )
    def test_bad_argument_raises_value_error(self, front, call):
        with pytest.raises(ValueError):
            call(front)


class TestIntrospection:
    def test_is_a_warehouse_front(self, front):
        assert isinstance(front, WarehouseFront)

    def test_sample_summary_keys(self, front):
        (summary,) = front.sample_summaries()
        assert set(summary) == SUMMARY_KEYS | shard_keys(front)
        assert summary["name"] == "s"
        assert summary["version"] == front.served_versions()["s"]
        assert summary["rows"] == front.stats()["samples"]["s"]["rows"]
        assert summary["rows"] > 0

    def test_health_keys(self, front):
        health = front.health()
        assert set(health) == HEALTH_KEYS | shard_keys(front)
        assert health["samples"] == 1

    def test_stats_serving_block(self, front):
        front.query(SQL)
        stats = front.stats()
        assert SERVING_STATS_KEYS <= set(stats)
        assert stats["epoch"] == front.epoch
        assert stats["tables"] == {"T": 3000}
        assert set(stats["plan_cache"]) == {"hits", "misses"}
        assert stats["answer_cache"]["misses"] >= 1


class TestOrderByTies:
    def test_descending_ties_keep_the_later_keys_order(self, make_front):
        """Groups tie on the descending key; the ascending keys after it
        must order each tie, on the approximate and the exact path."""
        rows = {
            ("x", "p"): [2.0, 3.0], ("x", "q"): [1.0, 4.0],
            ("y", "p"): [5.0, 5.0], ("y", "q"): [4.0, 6.0],
            ("z", "p"): [1.0, 1.0], ("z", "q"): [0.5, 1.5],
        }
        table = Table.from_pydict(
            {
                "a": [a for (a, _), vs in rows.items() for _ in vs],
                "b": [b for (_, b), vs in rows.items() for _ in vs],
                "v": [v for vs in rows.values() for v in vs],
            },
            name="T",
        )
        front = make_front({"T": table})
        front.build("s", "T", group_by=["a", "b"], value_columns=["v"],
                    budget=600)
        sql = (
            "SELECT a, b, SUM(v) s FROM T GROUP BY a, b "
            "ORDER BY s DESC, a, b"
        )
        expected = [
            ("y", "p"), ("y", "q"), ("x", "p"), ("x", "q"),
            ("z", "p"), ("z", "q"),
        ]
        for mode in ("auto", "exact"):
            result = front.query(sql, mode=mode)
            assert result.approximate == (mode == "auto")
            out = result.table
            got = list(zip(out.column("a").decode(), out.column("b").decode()))
            assert got == expected, mode


class TestRangeBelowUnretainedFamily:
    def test_falls_back_exact_instead_of_rejecting(self, make_front):
        """A family built with no ``retention`` never pruned a window,
        so a range reaching below its oldest window is not a retention
        violation: it falls back to exact like a gap window, even under
        ``on_violation="reject"``."""
        front = make_front({"T": timestamped_table(first_hour=10)})
        front.build_windowed(
            "s", "T", group_by=["g"], value_columns=["v"], budget=500,
            ts_column="ts", window=HOUR,
        )
        sql = (
            "SELECT g, SUM(v) s FROM T "
            f"WHERE ts >= {5 * HOUR} AND ts < {12 * HOUR} GROUP BY g"
        )
        answer = front.query_with_contract(sql, on_violation="reject")
        assert answer.contract.executed == "exact"
        assert answer.contract.satisfied
        exact = front.query(sql, mode="exact")
        assert by_group(answer.result.table) == pytest.approx(
            by_group(exact.table)
        )


def test_sharded_contract_names_route_time_version(tmp_path):
    """The sharded contract names the version its route was computed
    against, even when a refresh swaps a new version live while the
    partials are being scattered.

    The refresh is fired from inside the ``partials`` scatter, single
    threaded, so the interleaving is deterministic. Only the contract's
    snapshot is pinned: the shards' rows may already come from the newer
    version the refresh published (version-pinned partials are a
    separate, open item).
    """
    front = open_sharded(tmp_path / "wh", {"T": make_base()})
    try:
        front.build(
            "s", "T", group_by=["g"], value_columns=["x"], budget=600
        )
        routed = front.served_versions()["s"]
        scatter = front._scatter
        fired = []

        def scatter_with_refresh(op, payloads=None):
            if op == "partials" and not fired:
                fired.append(op)
                front.refresh("s", make_base(300, seed=11), seed=1)
            return scatter(op, payloads)

        front._scatter = scatter_with_refresh
        answer = front.query_with_contract(SQL)
        assert fired
        assert front.served_versions()["s"] != routed
        assert answer.contract.executed == "approximate"
        assert answer.contract.sample_version == routed
    finally:
        front.close()
