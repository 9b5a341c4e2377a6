"""Physical operators: hash == lexsort grouping, pipeline equality."""

import numpy as np
import pytest

from repro.engine import groupby
from repro.engine.groupby import compute_group_keys, compute_group_keys_sorted
from repro.engine.sql.executor import execute_sql, plan_query
from repro.engine.sql.parser import parse_query
from repro.engine.table import Table


def _assert_tables_equal(a: Table, b: Table):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        da, db = a.column(name).decode(), b.column(name).decode()
        if da.dtype.kind == "f":
            same = (da == db) | (np.isnan(da) & np.isnan(db))
            assert same.all(), name
        else:
            assert (da == db).all(), name


class TestSortedGroupKeys:
    @pytest.mark.parametrize("by", [["g"], ["g", "h"], ["h", "g"], []])
    def test_matches_hash_on_simple_table(self, simple_table, by):
        hashed = compute_group_keys(simple_table, by)
        sorted_ = compute_group_keys_sorted(simple_table, by)
        assert hashed.num_groups == sorted_.num_groups
        assert (hashed.gids == sorted_.gids).all()
        assert (hashed.representative == sorted_.representative).all()

    def test_matches_hash_on_dataset(self, openaq_small):
        sub = openaq_small.head(5000)
        by = ["country", "parameter", "unit"]
        hashed = compute_group_keys(sub, by)
        sorted_ = compute_group_keys_sorted(sub, by)
        assert (hashed.gids == sorted_.gids).all()
        assert (hashed.representative == sorted_.representative).all()

    def test_empty_table(self):
        table = Table.from_pydict({"a": []})
        keys = compute_group_keys_sorted(table, ["a"])
        assert keys.num_groups == 0


def _run_both_legs(monkeypatch, query, tables, weight_column=None):
    """The query's answer via combined codes, then via the lexsort leg
    (forced by a combined keyspace no key fits in)."""
    hashed = plan_query(query, weight_column).run(tables)
    with monkeypatch.context() as patch:
        patch.setattr(groupby, "_MAX_COMBINED_KEYSPACE", 1)
        sorted_ = plan_query(query, weight_column).run(tables)
    return hashed, sorted_


class TestStrategyInterchangeability:
    QUERIES = [
        "SELECT g, h, SUM(x) s, COUNT(*) c FROM T GROUP BY g, h",
        "SELECT g, h, AVG(x) a FROM T GROUP BY g, h WITH CUBE",
        "SELECT g, h, MEDIAN(x) m FROM T GROUP BY g, h ORDER BY g, h",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_hash_and_sort_agree(self, simple_table, sql, monkeypatch):
        hashed, sorted_ = _run_both_legs(
            monkeypatch, parse_query(sql), {"T": simple_table}
        )
        _assert_tables_equal(hashed, sorted_)

    def test_agree_on_dataset(self, openaq_small, monkeypatch):
        sub = openaq_small.head(8000)
        sql = (
            "SELECT country, parameter, AVG(value) a, COUNT(*) c "
            "FROM OpenAQ GROUP BY country, parameter"
        )
        hashed, sorted_ = _run_both_legs(
            monkeypatch, parse_query(sql), {"OpenAQ": sub}
        )
        _assert_tables_equal(hashed, sorted_)

    def test_weighted_agree(self, simple_table, monkeypatch):
        weighted = simple_table.with_column(
            "__weight__",
            simple_table.column("y"),
        )
        query = parse_query("SELECT g, h, SUM(x) s FROM T GROUP BY g, h")
        hashed, sorted_ = _run_both_legs(
            monkeypatch, query, {"T": weighted}, "__weight__"
        )
        _assert_tables_equal(hashed, sorted_)


class TestOrderByBooleanKey:
    def test_descending_boolean_expression(self, simple_table):
        out = execute_sql(
            "SELECT g, x FROM T ORDER BY x > 5 DESC, x ASC",
            {"T": simple_table},
        )
        xs = list(out["x"])
        # rows with x > 5 first, each block ascending by x
        assert xs == [10.0, 20.0, 100.0, 1.0, 2.0, 3.0]


class TestPlanExecutionEquivalence:
    """plan_query + run is exactly execute_sql (the public contract)."""

    QUERIES = [
        "SELECT g, COUNT(*) c FROM T GROUP BY g HAVING COUNT(*) > 1",
        "SELECT UPPER(g) ug, SUM(x) s FROM T GROUP BY UPPER(g)",
        "WITH f AS (SELECT g, x FROM T WHERE x > 1) "
        "SELECT g, SUM(x) s FROM f GROUP BY g ORDER BY s DESC",
        "SELECT t.g, u.m FROM T t "
        "JOIN (SELECT g, MAX(x) m FROM T GROUP BY g) u ON t.g = u.g",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_equivalent(self, simple_table, sql):
        query = parse_query(sql)
        via_plan = plan_query(query).run({"T": simple_table})
        via_api = execute_sql(sql, {"T": simple_table})
        _assert_tables_equal(via_plan, via_api)
