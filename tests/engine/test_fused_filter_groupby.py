"""Fused filter -> group -> aggregate equals filter-first, exactly.

``GroupAggregateOp`` and ``CubeAggregateOp`` turn a ``WHERE`` child into
a row mask over the unfiltered input (reading cached group codes when
the input is stamped), and ``compute_partials`` does the same on shard
workers. Every case runs one plan three ways and demands identical
tables: fused over a stamped table, fused over an unstamped copy, and
filter-first — the ``FilterOp`` output materialized before aggregation
— over the unstamped copy.
"""

import dataclasses
import os
import types

import numpy as np
import pytest

from repro.core.sample import WEIGHT_COLUMN
from repro.datasets import generate_openaq
from repro.engine import groupby
from repro.engine.groupby import compute_group_keys, compute_group_keys_sorted
from repro.engine.groupcache import default_group_code_cache
from repro.engine.schema import DType
from repro.engine.sql.operators import (
    FilterOp,
    PhysicalOperator,
    _AggregateBase,
    compile_plan,
)
from repro.engine.sql.parser import parse_query
from repro.engine.sql.planner import apply_weighting, lower_query
from repro.engine.table import Column, Table
from repro.warehouse import ShardedWarehouseService, WarehouseService
from repro.warehouse.partials import compute_partials, decompose

_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "npz")
_SHARDS = int(os.environ.get("REPRO_TEST_SHARDS", "2"))


def _base_table() -> Table:
    """OpenAQ rows plus a per-row unique key and HT-like weights."""
    base = generate_openaq(num_rows=6000, num_countries=12, seed=11)
    n = base.num_rows
    rng = np.random.default_rng(4)
    return base.with_column(
        "uid", Column(DType.INT64, np.arange(n, dtype=np.int64))
    ).with_column(
        WEIGHT_COLUMN, Column(DType.FLOAT64, rng.uniform(1.0, 40.0, n))
    )


@pytest.fixture(scope="module")
def base() -> Table:
    return _base_table()


def _stamped(table: Table, tag: str) -> Table:
    view = table.select(table.column_names)
    view.cache_token = ("test-fused", tag, id(view))
    return view


def _unstamped(table: Table) -> Table:
    return Table(
        {name: table.column(name) for name in table.column_names},
        name=table.name,
    )


class _FilterFirst(PhysicalOperator):
    """Runs its ``FilterOp`` child as-is: the aggregate above sees an
    already-filtered copy and cannot fuse."""

    def __init__(self, child: FilterOp) -> None:
        self.child = child

    def execute(self, catalog: dict):
        return self.child.execute(catalog)


def _unfuse(op) -> None:
    """Wrap every aggregate's ``FilterOp`` child in :class:`_FilterFirst`."""
    for name in ("child", "left", "right", "definition", "body"):
        child = getattr(op, name, None)
        if child is None:
            continue
        if isinstance(op, _AggregateBase) and isinstance(child, FilterOp):
            op.child = _FilterFirst(child)
        _unfuse(child)


def _plan(sql: str, weighted: bool, fused: bool):
    plan = lower_query(parse_query(sql))
    if weighted:
        plan = apply_weighting(plan, WEIGHT_COLUMN)
    physical = compile_plan(plan)
    if not fused:
        _unfuse(physical.root)
    return physical


def _assert_identical(a: Table, b: Table) -> None:
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        da, db = a.column(name).decode(), b.column(name).decode()
        if da.dtype.kind == "f":
            assert np.array_equal(da, db, equal_nan=True), name
        else:
            assert list(da) == list(db), name


def _run_three_ways(base: Table, sql: str, weighted: bool = False) -> Table:
    stamped = _stamped(base, sql)
    plain = _unstamped(base)
    fused_cached = _plan(sql, weighted, True).run({"T": stamped})
    fused_plain = _plan(sql, weighted, True).run({"T": plain})
    filter_first = _plan(sql, weighted, False).run({"T": plain})
    _assert_identical(fused_cached, filter_first)
    _assert_identical(fused_plain, filter_first)
    return fused_cached


CASES = {
    "keeps_all_rows": (
        "SELECT country, COUNT(*) c, SUM(value) s FROM T "
        "WHERE value > -1e12 GROUP BY country"
    ),
    "two_keys": (
        "SELECT country, parameter, AVG(value) a, COUNT(*) c FROM T "
        "WHERE latitude > 10 GROUP BY country, parameter"
    ),
    "one_row_per_group": (
        "SELECT uid, SUM(value) s, COUNT(*) c FROM T "
        "WHERE value > 20 GROUP BY uid"
    ),
    "middle_groups_vanish": (
        "SELECT parameter, AVG(latitude) a FROM T "
        "WHERE parameter <> 'no2' AND parameter <> 'o3' "
        "GROUP BY parameter"
    ),
    "having_and_order_by": (
        "SELECT country, AVG(value) a, COUNT(*) c FROM T "
        "WHERE value > 10 GROUP BY country HAVING COUNT(*) > 40 "
        "ORDER BY a DESC"
    ),
    "min_max_median_var_std": (
        "SELECT country, MIN(value) lo, MAX(value) hi, MEDIAN(value) md, "
        "VAR(value) v, STD(latitude) sd FROM T "
        "WHERE unit = 'ppm' GROUP BY country"
    ),
    "expression_arguments": (
        "SELECT location, SUM(value * 2 + latitude) s, AVG(1) one FROM T "
        "WHERE local_time > 0 AND value < 60 GROUP BY location"
    ),
    "derived_key": (
        "SELECT HOUR(local_time) h, COUNT(*) c, AVG(value) a FROM T "
        "WHERE value > 15 GROUP BY HOUR(local_time)"
    ),
    "aliased_stored_key": (
        "SELECT country AS k, SUM(value) s FROM T "
        "WHERE value > 15 GROUP BY k"
    ),
    "aliased_expression_key": (
        "SELECT value > 30 AS high, COUNT(*) c FROM T "
        "WHERE latitude > 0 GROUP BY high"
    ),
    "cube": (
        "SELECT country, parameter, SUM(value) s, COUNT(*) c FROM T "
        "WHERE value > 25 GROUP BY country, parameter WITH CUBE"
    ),
}


class TestFusedEqualsFilterFirst:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exact(self, base, case):
        result = _run_three_ways(base, CASES[case])
        assert result.num_rows > 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_weighted_sample(self, base, case):
        _run_three_ways(base, CASES[case], weighted=True)

    def test_empty_filter_with_group_by(self, base):
        result = _run_three_ways(
            base,
            "SELECT country, COUNT(*) c, AVG(value) a FROM T "
            "WHERE value > 1e12 GROUP BY country",
        )
        assert result.num_rows == 0

    @pytest.mark.parametrize("weighted", [False, True])
    def test_empty_filter_full_table_aggregate(self, base, weighted):
        # SQL semantics: one row, COUNT 0, whichever path runs.
        result = _run_three_ways(
            base,
            "SELECT COUNT(*) c, SUM(value) s FROM T WHERE value > 1e12",
            weighted=weighted,
        )
        assert result.num_rows == 1
        assert result.column("c").decode()[0] == 0

    def test_empty_filter_cube(self, base):
        result = _run_three_ways(
            base,
            "SELECT country, SUM(value) s FROM T WHERE value > 1e12 "
            "GROUP BY country WITH CUBE",
        )
        assert result.num_rows == 0

    def test_forced_sort_strategy(self, base, monkeypatch):
        sql = CASES["two_keys"]
        reference = _plan(sql, False, False).run({"T": _unstamped(base)})
        # No combined key fits: grouping takes the lexsort leg.
        monkeypatch.setattr(groupby, "_MAX_COMBINED_KEYSPACE", 1)
        fused = _plan(sql, False, True).run({"T": _stamped(base, "s")})
        _assert_identical(fused, reference)


class TestFusedPathCostShape:
    def test_filtered_group_by_reads_the_cache_and_never_copies(
        self, base, monkeypatch
    ):
        stamped = _stamped(base, "cost")
        copied = []
        original = Table.filter

        def spy(self, mask):
            copied.append(self.column_names)
            return original(self, mask)

        monkeypatch.setattr(Table, "filter", spy)
        cache = default_group_code_cache()
        before = cache.counters()
        sql = CASES["two_keys"]
        _plan(sql, False, True).run({"T": stamped})
        _plan(sql, False, True).run({"T": stamped})
        after = cache.counters()
        assert after["hits"] > before["hits"]
        # Only the aggregate's inputs are masked: never the whole table.
        assert copied
        for names in copied:
            assert set(names) <= {"value"}

    def test_four_key_group_by_reads_the_cache(self, base, monkeypatch):
        """A wide key takes the same cached path as a narrow one: the
        second run is a group-code cache hit, and a filtered run
        compacts the cached unfiltered codes instead of copying rows."""
        stamped = _stamped(base, "four-keys")
        cache = default_group_code_cache()
        sql = (
            "SELECT country, parameter, unit, location, SUM(value) s, "
            "COUNT(*) c FROM T {where}"
            "GROUP BY country, parameter, unit, location"
        )
        plain = sql.format(where="")
        filtered = sql.format(where="WHERE latitude > 10 ")
        _plan(plain, False, True).run({"T": stamped})
        before = cache.counters()
        _plan(plain, False, True).run({"T": stamped})
        after = cache.counters()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

        copied = []
        original = Table.filter

        def spy(self, mask):
            copied.append(self.column_names)
            return original(self, mask)

        monkeypatch.setattr(Table, "filter", spy)
        fused = _plan(filtered, False, True).run({"T": stamped})
        final = cache.counters()
        assert final["hits"] == after["hits"] + 1
        assert final["misses"] == after["misses"]
        assert copied
        for names in copied:
            assert set(names) <= {"value"}
        monkeypatch.undo()
        reference = _plan(filtered, False, False).run({"T": _unstamped(base)})
        _assert_identical(fused, reference)

    def test_derived_key_falls_back_to_filter_first(self, base, monkeypatch):
        copied = []
        original = Table.filter

        def spy(self, mask):
            copied.append(self.column_names)
            return original(self, mask)

        monkeypatch.setattr(Table, "filter", spy)
        _plan(CASES["derived_key"], False, True).run({"T": base})
        assert base.column_names in copied


class TestMaskedGroupKeys:
    @pytest.mark.parametrize("by", [(), ("country",), ("country", "unit")])
    @pytest.mark.parametrize("keep", ["none", "all", "some"])
    def test_masked_keys_match_a_filtered_copy(self, base, by, keep):
        n = base.num_rows
        mask = {
            "none": np.zeros(n, dtype=bool),
            "all": np.ones(n, dtype=bool),
            "some": base.column("value").data > 30,
        }[keep]
        filtered = base.filter(mask)
        expected = compute_group_keys(filtered, by)
        for table in (_stamped(base, f"keys-{keep}"), _unstamped(base)):
            for kernel in (compute_group_keys, compute_group_keys_sorted):
                got = kernel(table, by, mask)
                assert got.num_groups == expected.num_groups
                assert np.array_equal(got.gids, expected.gids)
                # Representatives index the unfiltered table and carry
                # the same key values as the filtered copy's.
                assert np.all(got.representative < n)
                for name in by:
                    got_keys = got.key_column(table, name).decode()
                    want = expected.key_column(filtered, name).decode()
                    assert list(got_keys) == list(want)


class TestShardPartials:
    SQL = (
        "SELECT country, parameter, SUM(value) s, COUNT(*) c, "
        "MIN(latitude) lo, VAR(value) v FROM T WHERE value > 25 "
        "GROUP BY country, parameter"
    )

    @pytest.mark.parametrize("stamp", [True, False])
    def test_fused_partials_equal_filter_first(self, base, stamp):
        dq = decompose(parse_query(self.SQL))
        table = _stamped(base, "partials") if stamp else _unstamped(base)
        fused = compute_partials(types.SimpleNamespace(table=table), dq)
        mask = base.column("value").data > 25
        reference = compute_partials(
            types.SimpleNamespace(table=_unstamped(base).filter(mask)),
            dataclasses.replace(dq, where=None),
        )
        assert fused.keys == reference.keys
        assert np.array_equal(fused.wcount, reference.wcount)
        assert np.array_equal(fused.support, reference.support)
        for a, b in zip(fused.blocks, reference.blocks):
            assert (a is None) == (b is None)
            if a is not None:
                for field in a:
                    assert np.array_equal(a[field], b[field]), field

    def test_sharded_front_serves_filtered_partials_from_cache(
        self, tmp_path, base
    ):
        # Each shard worker fuses the WHERE into its partials: the warm
        # repeat (answer cache cleared) reads every shard's cached codes
        # and merges the very same numbers as the cold run.
        table = base.without_columns([WEIGHT_COLUMN, "uid"])
        plain = WarehouseService(
            tmp_path / "plain", {"T": table}, backend=_BACKEND
        )
        sharded = ShardedWarehouseService(
            tmp_path / "sharded",
            {"T": table},
            shards=max(_SHARDS, 1),
            backend=_BACKEND,
            workers="inprocess",
        )
        sql = (
            "SELECT country, SUM(value) s, COUNT(*) c FROM T "
            "WHERE parameter <> 'pm25' GROUP BY country"
        )
        try:
            for svc in (plain, sharded):
                svc.build(
                    "s", "T", ["country", "parameter"], ["value"],
                    budget=900, seed=0,
                )
            cold = sharded.query(sql).table.to_pydict()
            sharded._cache.clear()
            cache = default_group_code_cache()
            hits = cache.counters()["hits"]
            warm = sharded.query(sql).table.to_pydict()
            assert cache.counters()["hits"] >= hits + max(_SHARDS, 1)
            assert warm == cold
            expected = plain.query(sql).table.to_pydict()
            assert sorted(cold["country"]) == sorted(expected["country"])
        finally:
            sharded.close()
