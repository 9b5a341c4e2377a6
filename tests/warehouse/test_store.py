"""SampleStore: serialization round-trips, versioning, atomic swaps."""

import json

import numpy as np
import pytest

from repro.core.cvopt import CVOptSampler
from repro.core.sample import STRATUM_COLUMN, WEIGHT_COLUMN
from repro.core.spec import GroupByQuerySpec
from repro.engine.schema import DType
from repro.warehouse.store import (
    SampleStore,
    _decode_key,
    _encode_key,
)


@pytest.fixture()
def sample(openaq_small):
    return CVOptSampler(
        [GroupByQuerySpec.single("value", by=("country", "parameter"))]
    ).sample(openaq_small, 900, seed=0)


@pytest.fixture()
def store(tmp_path, store_backend):
    return SampleStore(tmp_path / "wh", backend=store_backend)


class TestRoundTrip:
    def test_sample_round_trips_exactly(self, store, sample):
        store.put("s", sample, table_name="OpenAQ")
        stored = store.get("s")
        restored = stored.sample

        assert stored.table_name == "OpenAQ"
        assert restored.method == sample.method
        assert restored.budget == sample.budget
        assert restored.source_rows == sample.source_rows
        assert restored.num_rows == sample.num_rows
        assert restored.allocation.by == sample.allocation.by
        np.testing.assert_array_equal(
            restored.allocation.populations, sample.allocation.populations
        )
        np.testing.assert_array_equal(
            restored.allocation.sizes, sample.allocation.sizes
        )
        assert [tuple(k) for k in restored.allocation.keys] == [
            tuple(k) for k in sample.allocation.keys
        ]

    def test_dtypes_and_categories_preserved(self, store, sample):
        store.put("s", sample)
        restored = store.get("s").sample.table
        for name in sample.table.column_names:
            orig = sample.table.column(name)
            back = restored.column(name)
            assert back.dtype is orig.dtype
            assert back.data.dtype == orig.data.dtype
            if orig.dtype is DType.STRING:
                assert tuple(back.categories) == tuple(orig.categories)
                np.testing.assert_array_equal(back.decode(), orig.decode())
            else:
                np.testing.assert_array_equal(back.data, orig.data)

    def test_ht_weights_equal_after_reload(self, store, sample):
        store.put("s", sample)
        restored = store.get("s").sample
        np.testing.assert_array_equal(
            restored.table.column(WEIGHT_COLUMN).data,
            sample.table.column(WEIGHT_COLUMN).data,
        )
        np.testing.assert_array_equal(
            restored.table.column(STRATUM_COLUMN).data,
            sample.table.column(STRATUM_COLUMN).data,
        )
        # And the weights still are n_c / s_c for their stratum.
        alloc = restored.allocation
        gids = restored.table.column(STRATUM_COLUMN).data
        expected = (
            alloc.populations[gids] / np.maximum(alloc.sizes[gids], 1)
        )
        np.testing.assert_allclose(
            restored.table.column(WEIGHT_COLUMN).data, expected
        )

    def test_statistics_round_trip(self, store, sample):
        assert sample.allocation.stats is not None  # CVOPT keeps pass-1
        store.put("s", sample)
        restored = store.get("s").sample.allocation.stats
        orig = sample.allocation.stats
        assert set(restored.columns) == set(orig.columns)
        for column in orig.columns:
            np.testing.assert_allclose(
                restored.stats_for(column).total,
                orig.stats_for(column).total,
            )
            np.testing.assert_allclose(
                restored.stats_for(column).total_sq,
                orig.stats_for(column).total_sq,
            )

    def test_reloaded_sample_answers_queries(self, store, sample):
        store.put("s", sample)
        out = store.get("s").sample.answer(
            "SELECT country, AVG(value) a FROM OpenAQ GROUP BY country",
            "OpenAQ",
        )
        assert out.num_rows > 0


class TestVersioning:
    def test_versions_accumulate(self, store, sample):
        v1 = store.put("s", sample)
        v2 = store.put("s", sample)
        assert [v1, v2] == ["v000001", "v000002"]
        assert store.versions("s") == [v1, v2]
        assert store.current_version("s") == v2
        assert store.get("s").version == v2
        assert store.get("s", v1).version == v1

    def test_current_pointer_is_atomic_file(self, store, sample, tmp_path):
        store.put("s", sample)
        pointer = store.root / "s" / "CURRENT"
        assert pointer.read_text().strip() == "v000001"
        # No staging debris left behind.
        leftovers = [
            p for p in (store.root / "s").iterdir()
            if p.name.startswith(".staging")
        ]
        assert leftovers == []

    def test_prune_keeps_newest_and_current(self, store, sample):
        for _ in range(4):
            store.put("s", sample)
        removed = store.prune("s", keep=2)
        assert removed == ["v000001", "v000002"]
        assert store.versions("s") == ["v000003", "v000004"]
        assert store.current_version("s") == "v000004"

    def test_delete(self, store, sample):
        store.put("s", sample)
        store.delete("s")
        assert "s" not in store
        with pytest.raises(KeyError):
            store.get("s")

    def test_names_and_contains(self, store, sample):
        assert store.names() == []
        store.put("a", sample)
        store.put("b", sample)
        assert store.names() == ["a", "b"]
        assert "a" in store and "nope" not in store

    def test_invalid_names_rejected(self, store, sample):
        for bad in ("", "a/b", ".hidden", " padded "):
            with pytest.raises(ValueError):
                store.put(bad, sample)

    def test_stats_survives_concurrent_pruning(self, store, sample):
        import threading

        for _ in range(3):
            store.put("s", sample)
        stop = threading.Event()
        errors: list = []

        def churn():
            i = 0
            while not stop.is_set():
                store.put("s", sample)
                store.prune("s", keep=1)
                i += 1
                if i >= 15:
                    return

        t = threading.Thread(target=churn)
        t.start()
        try:
            for _ in range(200):
                for entry in store.stats():
                    assert entry.bytes_on_disk >= 0
        except FileNotFoundError as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            stop.set()
            t.join(timeout=30)
        assert errors == []

    def test_stats_accounting(self, store, sample):
        store.put("s", sample, lineage={"staleness": 0.5})
        (entry,) = store.stats()
        assert entry.name == "s"
        assert entry.rows == sample.num_rows
        assert entry.strata == sample.allocation.num_strata
        assert entry.bytes_on_disk > 0
        assert entry.lineage["staleness"] == 0.5


def _corrupt_version(store, name, version):
    """Simulate a crash mid-write: truncate the rows blob to half its
    bytes (and, for the memory backend, evict the resident blob the
    marker points at — its file is only accounting)."""
    from repro.warehouse.backends import MemoryBackend

    import os

    stored = store.get(name, version)
    rows_path = store.root / name / version / stored.storage["rows_file"]
    data = rows_path.read_bytes()
    rows_path.write_bytes(data[: len(data) // 2])
    MemoryBackend._blobs.pop(os.path.abspath(str(rows_path.parent)), None)


class TestCorruptVersionRecovery:
    """A partially-written version directory (crash mid-put) must be
    skipped by the default ``get``, not raise."""

    def test_get_skips_truncated_current_version(self, store, sample):
        v1 = store.put("s", sample)
        v2 = store.put("s", sample)
        _corrupt_version(store, "s", v2)
        stored = store.get("s")
        assert stored.version == v1
        assert stored.sample.num_rows == sample.num_rows

    def test_get_skips_version_with_missing_meta(self, store, sample):
        v1 = store.put("s", sample)
        v2 = store.put("s", sample)
        (store.root / "s" / v2 / "meta.json").unlink()
        assert store.get("s").version == v1

    def test_get_skips_version_with_missing_rows(self, store, sample):
        import os

        from repro.warehouse.backends import MemoryBackend

        v1 = store.put("s", sample)
        v2 = store.put("s", sample)
        stored = store.get("s", v2)
        rows_path = store.root / "s" / v2 / stored.storage["rows_file"]
        rows_path.unlink()
        MemoryBackend._blobs.pop(
            os.path.abspath(str(rows_path.parent)), None
        )
        assert store.get("s").version == v1

    def test_all_versions_corrupt_raises_key_error(self, store, sample):
        v1 = store.put("s", sample)
        _corrupt_version(store, "s", v1)
        with pytest.raises(KeyError, match="no readable version"):
            store.get("s")

    def test_explicit_version_still_surfaces_corruption(self, store, sample):
        store.put("s", sample)
        v2 = store.put("s", sample)
        _corrupt_version(store, "s", v2)
        with pytest.raises(Exception):
            store.get("s", v2)

    def test_corrupt_current_does_not_break_stats(self, store, sample):
        v1 = store.put("s", sample)
        _corrupt_version(store, "s", v1)
        (entry,) = store.stats()
        assert entry.name == "s"
        assert entry.bytes_on_disk >= 0

    def test_maintainer_refresh_survives_torn_current(
        self, store, sample, openaq_small
    ):
        """The maintenance path reads through the same skip logic: a
        torn current version falls back to the previous one."""
        from repro.warehouse.maintenance import SampleMaintainer

        maintainer = SampleMaintainer(store)
        maintainer.build(
            "m", openaq_small, group_by=["country", "parameter"],
            value_columns=["value"], budget=600,
        )
        v2 = store.put("m", store.get("m").sample)
        _corrupt_version(store, "m", v2)
        batch = openaq_small.take(np.arange(200))
        report = maintainer.refresh("m", batch)
        assert report.rows_ingested == 200
        assert store.get("m").version == report.version


class TestKeyEncoding:
    def test_mixed_types_round_trip(self):
        key = ("US", 3, 2.5, True, None)
        assert _decode_key(_encode_key(key)) == key

    def test_numpy_scalars_normalized(self):
        key = (np.str_("US"), np.int64(3), np.float64(2.5), np.bool_(False))
        decoded = _decode_key(_encode_key(key))
        assert decoded == ("US", 3, 2.5, False)
        assert [type(v) for v in decoded] == [str, int, float, bool]

    def test_json_serializable(self, store, sample):
        store.put("s", sample)
        meta_path = store.root / "s" / "v000001" / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["format"] == 5
        assert meta["storage"]["format"] in ("npz", "parquet", "memory", "mmap")
        assert set(meta["columns"]) == {"tracked", "primary"}
        assert len(meta["allocation"]["keys"]) == sample.allocation.num_strata
