"""Numerical stability and algebra of the one moments type.

Every variance the system computes goes through
:class:`~repro.engine.statistics.ColumnStats` — ``(count, total, m2)``
with a centred ``m2``. These properties pin what that buys:

* per-group ``STD``/``VAR``/``AVG`` answers match numpy's two-pass
  result on the *same shifted float64 input* for offsets up to 1e12,
  on the exact engine, the plain sample route and an in-process
  sharded partials route (``REPRO_TEST_SHARDS`` shards, default 2);
* per-stratum ``ColumnStats.std`` (the sigma CVOPT allocates from)
  does the same — sigma, not CV, since CV moves with the mean;
* plain and sharded sample answers agree to 1e-9 at offset 1e8, up to
  an absolute ``eps * |offset|`` floor when groups span shards;
* :meth:`ColumnStats.combine` is associative and commutative, and
  split-then-combine equals :meth:`ColumnStats.from_values` on the
  union;
* ``resume`` -> ``statistics()`` hands the persisted ``m2`` back
  bit-for-bit.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqp import AQPSession
from repro.core.cvopt import CVOptSampler
from repro.core.sample import WEIGHT_COLUMN
from repro.core.spec import AggregateSpec, GroupByQuerySpec
from repro.core.streaming import StreamingCVOptSampler
from repro.datasets import generate_openaq
from repro.engine.schema import DType
from repro.engine.sql.executor import execute_sql
from repro.engine.sql.parser import parse_query
from repro.engine.statistics import ColumnStats, collect_strata_statistics
from repro.engine.table import Column, Table
from repro.warehouse import ShardedWarehouseService, WarehouseService
from repro.warehouse.partials import (
    compute_partials,
    decompose,
    finalize_partials,
    merge_partials,
)
from repro.warehouse.sharding import split_sample

_SHARDS = int(os.environ.get("REPRO_TEST_SHARDS", "2"))

SQL = "SELECT g, STD(v) s, VAR(v) q, AVG(v) a FROM T GROUP BY g"
GROUPS = ["g0", "g1", "g2", "g3"]
OFFSETS = [0.0, 1e4, 1e8, 1e10, 1e12, -1e8, -1e12]
EPS = np.finfo(np.float64).eps

offsets = st.sampled_from(OFFSETS)
seeds = st.integers(0, 2**16)
group_sizes = st.lists(st.integers(5, 60), min_size=2, max_size=4)
scales = st.floats(1.0, 100.0)


def shifted_table(sizes, seed, scale, offset):
    """Groups of normal values (sigma ~ ``scale``) shifted by ``offset``.

    The shift is applied once, in float64, so every path and the numpy
    reference see the identical input.
    """
    rng = np.random.default_rng(seed)
    g, v = [], []
    for i, size in enumerate(sizes):
        g.extend([GROUPS[i]] * size)
        v.extend(rng.normal(50.0 * (i + 1), scale, size) + offset)
    h = [f"h{i % 3}" for i in range(len(g))]  # finer strata within g
    return Table.from_pydict({"g": g, "h": h, "v": np.asarray(v)}, name="T")


def numpy_moments(values, weights=None):
    """Weighted two-pass (mean, var) — numpy's own reduction."""
    mean = np.average(values, weights=weights)
    return mean, np.average((values - mean) ** 2, weights=weights)


def reference(table, weights=None):
    """``{group: (std, var, avg)}`` over ``table`` rows."""
    labels = np.asarray(table.column("g").decode())
    values = table.column("v").values_numeric()
    out = {}
    for label in np.unique(labels):
        mask = labels == label
        mean, var = numpy_moments(
            values[mask], None if weights is None else weights[mask]
        )
        out[str(label)] = (np.sqrt(var), var, mean)
    return out


def answers(table):
    keys = table.column("g").decode()
    return {
        str(k): (float(s), float(q), float(a))
        for k, s, q, a in zip(
            keys, table["s"], table["q"], table["a"]
        )
    }


def assert_matches(got, want, rtol):
    assert set(got) == set(want)
    for key, expected in want.items():
        np.testing.assert_allclose(got[key], expected, rtol=rtol)


def cvopt_sample(table, budget, seed, by=("g",)):
    spec = GroupByQuerySpec(by, (AggregateSpec("v"),))
    return CVOptSampler([spec]).sample(table, budget, seed=seed)


def sample_answer(sample, table):
    session = AQPSession({"T": table})
    session.register_sample("s", sample, "T")
    result = session.query(SQL, mode="approx")
    assert result.approximate
    return answers(result.table)


def sharded_answer(sample, shards):
    dq = decompose(parse_query(SQL))
    parts = [
        compute_partials(piece, dq)
        for piece in split_sample(sample, shards)
    ]
    merged = merge_partials(parts, len(dq.agg_calls))
    return answers(finalize_partials(dq, merged))


def sample_reference(sample):
    rows = sample.table
    return reference(rows, rows.column(WEIGHT_COLUMN).values_numeric())


class TestOffsetInvariance:
    @settings(max_examples=40, deadline=None)
    @given(sizes=group_sizes, seed=seeds, scale=scales, offset=offsets)
    def test_exact_engine_matches_numpy(self, sizes, seed, scale, offset):
        table = shifted_table(sizes, seed, scale, offset)
        got = answers(execute_sql(SQL, {"T": table}))
        assert_matches(got, reference(table), rtol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(sizes=group_sizes, seed=seeds, scale=scales, offset=offsets)
    def test_sample_routes_match_numpy(self, sizes, seed, scale, offset):
        table = shifted_table(sizes, seed, scale, offset)
        sample = cvopt_sample(table, budget=max(8, table.num_rows // 2),
                              seed=seed)
        want = sample_reference(sample)
        assert_matches(sample_answer(sample, table), want, rtol=1e-6)
        assert_matches(sharded_answer(sample, _SHARDS), want, rtol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(sizes=group_sizes, seed=seeds, scale=scales, offset=offsets)
    def test_stratum_sigma_matches_numpy(self, sizes, seed, scale, offset):
        table = shifted_table(sizes, seed, scale, offset)
        stats = collect_strata_statistics(table, ["g"], ["v"])
        want = reference(table)
        cs = stats.stats_for("v")
        for key, std, mean in zip(stats.keys, cs.std, cs.mean):
            ref_std, _, ref_mean = want[key[0]]
            np.testing.assert_allclose(std, ref_std, rtol=1e-6)
            np.testing.assert_allclose(
                mean, ref_mean, rtol=1e-12, atol=1e-12 * (abs(offset) + 1e3)
            )

    @settings(max_examples=25, deadline=None)
    @given(sizes=group_sizes, seed=seeds, scale=scales,
           by=st.sampled_from([("g",), ("g", "h")]))
    def test_plain_and_sharded_agree_at_1e8(self, sizes, seed, scale, by):
        """Strata ``g``: each answer group lives on one shard, so the
        merge adds nothing. Strata ``(g, h)``: groups span shards, and
        the merge's between-shard term inherits the rounding of each
        shard's stored total, which puts an absolute floor of a few
        ``eps * |offset|`` under the STD (``2 * STD`` times that under
        the VAR) whatever sigma is."""
        offset = 1e8
        table = shifted_table(sizes, seed, scale, offset)
        sample = cvopt_sample(table, budget=max(8, table.num_rows // 2),
                              seed=seed, by=by)
        got = sharded_answer(sample, _SHARDS)
        want = sample_answer(sample, table)
        floor = 0.0 if by == ("g",) else 4 * EPS * offset
        assert set(got) == set(want)
        for key, (std, var, avg) in want.items():
            got_std, got_var, got_avg = got[key]
            np.testing.assert_allclose(got_std, std, rtol=1e-9, atol=floor)
            np.testing.assert_allclose(
                got_var, var, rtol=1e-9, atol=2 * std * floor
            )
            np.testing.assert_allclose(got_avg, avg, rtol=1e-9)


class TestOpenAQShift:
    """``STD(value) GROUP BY country`` on OpenAQ shifted by 1e10, through
    the exact engine and both warehouse fronts. Samples stratify by
    ``(country, parameter)``, so each country spans shards and the
    sharded answer exercises the cross-shard merge."""

    SQL = "SELECT country, STD(value) s FROM OpenAQ GROUP BY country"

    def test_all_paths_match_numpy(self):
        base = generate_openaq(num_rows=20_000, num_countries=8, seed=3)
        value = base.column("value").values_numeric() + 1e10
        table = base.with_column("value", Column(DType.FLOAT64, value))

        def check(result, weights=None, rows=None):
            rows = table if rows is None else rows
            labels = np.asarray(rows.column("country").decode())
            vals = rows.column("value").values_numeric()
            got = dict(
                zip(result.column("country").decode(), result["s"])
            )
            assert set(got) == set(labels)
            for label, std in got.items():
                mask = labels == label
                _, var = numpy_moments(
                    vals[mask], None if weights is None else weights[mask]
                )
                np.testing.assert_allclose(std, np.sqrt(var), rtol=1e-6)

        check(execute_sql(self.SQL, {"OpenAQ": table}))
        with tempfile.TemporaryDirectory() as tmp:
            plain = WarehouseService(
                os.path.join(tmp, "plain"), {"OpenAQ": table}
            )
            with ShardedWarehouseService(
                os.path.join(tmp, "sharded"), {"OpenAQ": table},
                shards=_SHARDS, workers="inprocess",
            ) as sharded:
                for front in (plain, sharded):
                    front.build(
                        "aq", "OpenAQ", group_by=["country", "parameter"],
                        value_columns=["value"], budget=2000, seed=1,
                    )
                rows = plain.store.get("aq").sample.table
                weights = rows.column(WEIGHT_COLUMN).values_numeric()
                for front in (plain, sharded):
                    answer = front.query(self.SQL)
                    assert answer.route.approximate
                    check(answer.table, weights, rows)


#: Bounds of the synthetic parts: at most this many values per part,
#: and part means at most this far apart (centres in [-50, 50], sigma
#: 10, so a lone value lands well inside).
MAX_PART = 40
SPREAD = 200.0


def random_parts(seed, offset, num_parts, n):
    """``num_parts`` per-slot moment blocks over random data, plus the
    raw ``(values, gids)`` they summarize."""
    rng = np.random.default_rng(seed)
    parts, slots, raw = [], [], []
    for _ in range(num_parts):
        size = int(rng.integers(1, MAX_PART))
        gids = rng.integers(0, n, size)
        values = rng.normal(rng.uniform(-50, 50), 10.0, size) + offset
        present = np.unique(gids)
        dense = np.searchsorted(present, gids)
        parts.append(ColumnStats.from_values(values, dense, len(present)))
        slots.append(present)
        raw.append((values, gids))
    return parts, slots, raw


def merge_atol(offset, num_parts):
    """Absolute variance tolerance of a merge.

    A part's mean is read from its stored ``total``, whose summation
    rounds by at most ``size * eps * |mean|``; the between-part term
    ``count * (mean_part - mean)^2`` inherits that error linearly, so a
    merged variance is good to about ``2 * SPREAD * size * eps *
    |offset|`` — linear in the offset, where the old raw ``total_sq``
    representation lost ``eps * offset^2``.
    """
    return 2.0 * SPREAD * num_parts * MAX_PART * EPS * (abs(offset) + SPREAD)


def assert_merged_close(got, want, offset, num_parts):
    # Totals differ only by summation order: relative to the summed
    # magnitudes, not to a total that may itself cancel to near zero.
    scale = 1e-12 * (abs(offset) + SPREAD)
    np.testing.assert_array_equal(got.count, want.count)
    np.testing.assert_allclose(
        got.total, want.total, rtol=1e-12, atol=scale * want.count.max()
    )
    np.testing.assert_allclose(got.mean, want.mean, rtol=1e-12, atol=scale)
    np.testing.assert_allclose(
        got.variance,
        want.variance,
        rtol=1e-9,
        atol=merge_atol(offset, num_parts),
    )


class TestCombineAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, offset=offsets, n=st.integers(1, 6))
    def test_associative_and_commutative(self, seed, offset, n):
        parts, slots, _ = random_parts(seed, offset, 3, n)
        a, b, c = parts
        sa, sb, sc = slots
        flat = ColumnStats.combine(parts, slots, n)
        ident = np.arange(n)
        left = ColumnStats.combine(
            [ColumnStats.combine([a, b], [sa, sb], n), c], [ident, sc], n
        )
        right = ColumnStats.combine(
            [a, ColumnStats.combine([b, c], [sb, sc], n)], [sa, ident], n
        )
        swapped = ColumnStats.combine([c, a, b], [sc, sa, sb], n)
        for other in (left, right, swapped):
            assert_merged_close(other, flat, offset, 3)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, offset=offsets, n=st.integers(1, 6),
           num_parts=st.integers(1, 4))
    def test_split_then_combine_equals_union(
        self, seed, offset, n, num_parts
    ):
        parts, slots, raw = random_parts(seed, offset, num_parts, n)
        values = np.concatenate([v for v, _ in raw])
        gids = np.concatenate([g for _, g in raw])
        union = ColumnStats.from_values(values, gids, n)
        merged = ColumnStats.combine(parts, slots, n)
        assert_merged_close(merged, union, offset, num_parts)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, offset=offsets, factor=st.floats(0.05, 1.0))
    def test_scaling_preserves_mean_and_variance(
        self, seed, offset, factor
    ):
        parts, slots, _ = random_parts(seed, offset, 1, 4)
        scaled = ColumnStats.combine(parts, slots, 4, [factor])
        plain = ColumnStats.combine(parts, slots, 4)
        np.testing.assert_allclose(scaled.count, factor * plain.count)
        np.testing.assert_allclose(scaled.mean, plain.mean, rtol=1e-12)
        np.testing.assert_allclose(
            scaled.variance, plain.variance, rtol=1e-9, atol=1e-12
        )


class TestResumeRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(sizes=group_sizes, seed=seeds, scale=scales, offset=offsets)
    def test_statistics_return_persisted_m2(
        self, sizes, seed, scale, offset
    ):
        table = shifted_table(sizes, seed, scale, offset)
        sample = cvopt_sample(table, budget=max(8, table.num_rows // 3),
                              seed=seed)
        stats = sample.allocation.stats
        sampler = StreamingCVOptSampler.resume(sample, ["v"], stats)
        back = sampler.statistics()
        assert [tuple(k) for k in back.keys] == [
            tuple(k) for k in sample.allocation.keys
        ]
        np.testing.assert_array_equal(
            back.stats_for("v").m2, stats.stats_for("v").m2
        )
