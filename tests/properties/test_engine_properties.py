"""Property-based tests of the query engine (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import compute_aggregate
from repro.engine.groupby import compute_group_keys, cube_grouping_sets
from repro.engine.sql.executor import execute_sql
from repro.engine.statistics import WelfordAccumulator, collect_strata_statistics
from repro.engine.table import Table

values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=200,
)
labels_strategy = st.lists(
    st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=200
)


def aligned_table(draw_labels, draw_values):
    n = min(len(draw_labels), len(draw_values))
    return Table.from_pydict(
        {"g": draw_labels[:n], "v": draw_values[:n]}
    )


class TestGroupByProperties:
    @settings(max_examples=60)
    @given(labels=labels_strategy, values=values_strategy)
    def test_group_sums_partition_total(self, labels, values):
        table = aligned_table(labels, values)
        keys = compute_group_keys(table, ["g"])
        v = table.column("v").values_numeric()
        sums = compute_aggregate("SUM", v, keys.gids, keys.num_groups)
        np.testing.assert_allclose(sums.sum(), v.sum(), rtol=1e-9, atol=1e-6)

    @settings(max_examples=60)
    @given(labels=labels_strategy, values=values_strategy)
    def test_counts_partition_rows(self, labels, values):
        table = aligned_table(labels, values)
        keys = compute_group_keys(table, ["g"])
        counts = compute_aggregate(
            "COUNT", None, keys.gids, keys.num_groups
        )
        assert counts.sum() == table.num_rows

    @settings(max_examples=60)
    @given(labels=labels_strategy, values=values_strategy)
    def test_min_max_bound_avg(self, labels, values):
        table = aligned_table(labels, values)
        keys = compute_group_keys(table, ["g"])
        v = table.column("v").values_numeric()
        lo = compute_aggregate("MIN", v, keys.gids, keys.num_groups)
        hi = compute_aggregate("MAX", v, keys.gids, keys.num_groups)
        avg = compute_aggregate("AVG", v, keys.gids, keys.num_groups)
        assert (lo <= avg + 1e-9).all()
        assert (avg <= hi + 1e-9).all()

    @settings(max_examples=60)
    @given(labels=labels_strategy, values=values_strategy)
    def test_matches_dict_reference(self, labels, values):
        table = aligned_table(labels, values)
        keys = compute_group_keys(table, ["g"])
        v = table.column("v").values_numeric()
        avg = compute_aggregate("AVG", v, keys.gids, keys.num_groups)
        got = dict(zip([k[0] for k in keys.key_tuples(table)], avg))
        ref = {}
        for label, value in zip(table["g"], table["v"]):
            ref.setdefault(label, []).append(value)
        for label, vals in ref.items():
            np.testing.assert_allclose(
                got[label], np.mean(vals), rtol=1e-9, atol=1e-9
            )


class TestCubeProperties:
    @given(attrs=st.lists(st.sampled_from("abcde"), min_size=0,
                          max_size=4, unique=True))
    def test_powerset_size(self, attrs):
        sets = cube_grouping_sets(attrs)
        assert len(sets) == 2 ** len(attrs)
        assert len(set(sets)) == len(sets)

    @settings(max_examples=30)
    @given(labels=labels_strategy, values=values_strategy)
    def test_cube_rollups_consistent(self, labels, values):
        """In a CUBE result, the ALL row's SUM equals the sum of the
        per-group SUMs (additivity of rollups)."""
        table = aligned_table(labels, values)
        out = execute_sql(
            "SELECT g, SUM(v) s FROM T GROUP BY g WITH CUBE", {"T": table}
        )
        from repro.engine.groupby import ALL_MARKER

        per_group = [
            s for g, s in zip(out["g"], out["s"]) if g != ALL_MARKER
        ]
        total = [s for g, s in zip(out["g"], out["s"]) if g == ALL_MARKER]
        np.testing.assert_allclose(
            np.sum(per_group), total[0], rtol=1e-9, atol=1e-6
        )


class TestWelfordProperties:
    @settings(max_examples=60)
    @given(values=values_strategy)
    def test_matches_numpy(self, values):
        acc = WelfordAccumulator()
        acc.add_many(values)
        arr = np.asarray(values)
        np.testing.assert_allclose(acc.mean, arr.mean(), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            acc.variance, arr.var(), rtol=1e-6, atol=1e-6
        )

    @settings(max_examples=60)
    @given(values=values_strategy, split=st.integers(0, 200))
    def test_merge_equals_single_pass(self, values, split):
        split = min(split, len(values))
        left, right = WelfordAccumulator(), WelfordAccumulator()
        left.add_many(values[:split])
        right.add_many(values[split:])
        left.merge(right)
        arr = np.asarray(values)
        np.testing.assert_allclose(left.mean, arr.mean(), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            left.variance, arr.var(), rtol=1e-6, atol=1e-6
        )


class TestStatisticsProperties:
    @settings(max_examples=40)
    @given(labels=labels_strategy, values=values_strategy)
    def test_strata_stats_match_numpy(self, labels, values):
        table = aligned_table(labels, values)
        stats = collect_strata_statistics(table, ["g"], ["v"])
        cs = stats.stats_for("v")
        ref = {}
        for label, value in zip(table["g"], table["v"]):
            ref.setdefault(label, []).append(value)
        for key, mean, var in zip(stats.keys, cs.mean, cs.variance):
            vals = np.asarray(ref[key[0]])
            np.testing.assert_allclose(mean, vals.mean(), rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(
                var, vals.var(), rtol=1e-6, atol=1e-5
            )


class TestSqlProperties:
    @settings(max_examples=40)
    @given(
        labels=labels_strategy,
        values=values_strategy,
        threshold=st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_filter_partition(self, labels, values, threshold):
        """COUNT(WHERE p) + COUNT(WHERE NOT p) == COUNT(*)."""
        table = aligned_table(labels, values)
        total = execute_sql("SELECT COUNT(*) c FROM T", {"T": table})["c"][0]
        hit = execute_sql(
            f"SELECT COUNT(*) c FROM T WHERE v > {threshold!r}", {"T": table}
        )["c"][0]
        miss = execute_sql(
            f"SELECT COUNT(*) c FROM T WHERE NOT v > {threshold!r}",
            {"T": table},
        )["c"][0]
        assert hit + miss == total
