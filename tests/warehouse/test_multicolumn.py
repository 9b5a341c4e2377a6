"""Multi-column pipeline end to end: build --columns a,b, refresh via
streaming batches, answer AVG(b) with a contract predicted from b's
moments — and keep loading pre-format-3 (single-column) metas."""

import json
import os

import numpy as np
import pytest

from repro.aqp.planning import predict_group_cvs
from repro.engine.statistics import collect_strata_statistics
from repro.engine.table import Table
from repro.warehouse import SampleStore, WarehouseService

_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "npz")


def split_rows(table, *fractions):
    n = table.num_rows
    bounds = [0] + [int(n * f) for f in fractions] + [n]
    return [
        table.take(np.arange(bounds[i], bounds[i + 1]))
        for i in range(len(bounds) - 1)
    ]


@pytest.fixture()
def service(tmp_path, openaq_small):
    base, _, _ = split_rows(openaq_small, 0.6, 0.8)
    svc = WarehouseService(
        tmp_path / "wh", {"OpenAQ": base}, backend=_BACKEND
    )
    svc.build(
        "s", "OpenAQ", group_by=["country"],
        value_columns=["value", "latitude"], budget=900,
    )
    return svc


class TestMultiColumnPipeline:
    def test_refreshed_moments_match_scratch_rebuild_per_column(
        self, service, openaq_small
    ):
        _, b1, b2 = split_rows(openaq_small, 0.6, 0.8)
        service.refresh("s", b1, seed=1)
        service.refresh("s", b2, seed=2)
        stats = service.store.get("s").statistics
        assert set(stats.columns) == {"value", "latitude"}
        full = collect_strata_statistics(
            openaq_small, ("country",), ["value", "latitude"]
        )
        idx = {k: i for i, k in enumerate(full.keys)}
        order = [idx[tuple(k)] for k in stats.keys]
        for column in ("value", "latitude"):
            merged = stats.stats_for(column)
            scratch = full.stats_for(column)
            np.testing.assert_allclose(
                merged.total, scratch.total[order], rtol=1e-9
            )
            np.testing.assert_allclose(
                merged.total_sq, scratch.total_sq[order], rtol=1e-9
            )

    def test_contract_for_avg_b_comes_from_bs_moments(
        self, service, openaq_small
    ):
        _, b1, b2 = split_rows(openaq_small, 0.6, 0.8)
        service.refresh("s", b1, seed=1)
        service.refresh("s", b2, seed=2)
        answer = service.query_with_contract(
            "SELECT country, AVG(latitude) a FROM OpenAQ GROUP BY country"
        )
        contract = answer.contract
        assert contract.executed == "approximate"
        assert contract.cv_columns == ("latitude",)
        # The per-group prediction is exactly the CV math applied to
        # latitude's persisted (exact, merged) moments.
        sample = service.store.get("s").sample
        alloc = sample.allocation
        data_cvs = np.nan_to_num(
            alloc.stats.stats_for("latitude").cv(mean_floor=1e-9)
        )
        expected = predict_group_cvs(
            alloc.populations, data_cvs, alloc.sizes
        )
        np.testing.assert_allclose(
            np.asarray(contract.group_cvs), expected, rtol=1e-12
        )
        # ...and differs from what value's moments would predict.
        value_cvs = np.nan_to_num(
            alloc.stats.stats_for("value").cv(mean_floor=1e-9)
        )
        assert not np.allclose(
            expected, predict_group_cvs(
                alloc.populations, value_cvs, alloc.sizes
            )
        )

    def test_lineage_and_summaries_surface_columns(self, service):
        stored = service.store.get("s")
        assert stored.tracked_columns == ["value", "latitude"]
        assert stored.primary_column == "value"
        summary = {
            s["name"]: s for s in service.sample_summaries()
        }["s"]
        assert summary["columns"] == ["value", "latitude"]
        assert summary["primary_column"] == "value"
        stats = service.stats()["samples"]["s"]
        assert stats["columns"]["tracked"] == ["value", "latitude"]
        assert stats["columns"]["primary"] == "value"
        assert set(stats["columns"]["stats"]) == {"value", "latitude"}
        per_col = stats["columns"]["stats"]["latitude"]
        assert per_col["strata"] >= per_col["populated_strata"] > 0
        assert per_col["mean_data_cv"] is not None

    def test_refresh_report_carries_per_column_drift(
        self, service, openaq_small
    ):
        _, b1, _ = split_rows(openaq_small, 0.6, 0.8)
        report = service.refresh("s", b1, seed=1)
        assert set(report.drift_by_column) == {"value", "latitude"}
        assert report.drift == pytest.approx(
            max(report.drift_by_column.values())
        )
        info = service.staleness("s")
        assert set(info.drift_by_column) == {"value", "latitude"}
        assert info.columns == ["value", "latitude"]


class TestLegacyMetaCompatibility:
    """Pre-format-3 metas (no ``columns`` block, single-column lineage)
    must still load, serve, and refresh."""

    def _downgrade_meta(self, store, name):
        """Rewrite the current version's meta to the format-2 shape."""
        version = store.current_version(name)
        meta_path = store.root / name / version / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = 2
        meta.pop("columns", None)
        lineage = meta.get("lineage") or {}
        lineage.pop("value_columns", None)
        lineage.pop("primary_column", None)
        lineage.pop("drift_by_column", None)
        lineage["value_column"] = "value"
        meta["lineage"] = lineage
        meta_path.write_text(json.dumps(meta, indent=2))

    @pytest.fixture()
    def legacy_store(self, tmp_path, openaq_small):
        base, _ = split_rows(openaq_small, 0.7)
        svc = WarehouseService(
            tmp_path / "wh", {"OpenAQ": base}, backend=_BACKEND
        )
        svc.build(
            "old", "OpenAQ", group_by=["country"],
            value_columns=["value"], budget=600,
        )
        self._downgrade_meta(svc.store, "old")
        return svc.store.root

    def test_legacy_meta_loads_with_derived_columns(
        self, legacy_store
    ):
        store = SampleStore(legacy_store, backend=_BACKEND)
        stored = store.get("old")
        assert json.loads(
            (stored.path / "meta.json").read_text()
        )["format"] == 2
        assert stored.tracked_columns == ["value"]
        assert stored.primary_column == "value"

    def test_legacy_meta_serves_and_refreshes(
        self, legacy_store, openaq_small
    ):
        base, batch = split_rows(openaq_small, 0.7)
        svc = WarehouseService(
            legacy_store, {"OpenAQ": base}, backend=_BACKEND
        )
        answer = svc.query_with_contract(
            "SELECT country, AVG(value) a FROM OpenAQ GROUP BY country"
        )
        assert answer.contract.executed == "approximate"
        assert answer.contract.cv_columns == ("value",)
        report = svc.refresh("old", batch, seed=1)
        assert report.columns == ["value"]
        # The refreshed version is written in the current format.
        stored = svc.store.get("old")
        assert stored.tracked_columns == ["value"]
        meta = json.loads((stored.path / "meta.json").read_text())
        assert meta["format"] == 5
