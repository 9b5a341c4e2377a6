"""Meta format 5: centred ``m2`` statistics, and formats 1-4 on read."""

import json

import numpy as np
import pytest

from repro.core.cvopt import CVOptSampler
from repro.core.spec import GroupByQuerySpec
from repro.core.streaming import StreamingCVOptSampler
from repro.warehouse.store import SampleStore

BY = ("country", "parameter")


@pytest.fixture()
def sample(openaq_small):
    return CVOptSampler(
        [GroupByQuerySpec.single("value", by=BY)]
    ).sample(openaq_small, 900, seed=0)


@pytest.fixture()
def store(tmp_path, store_backend):
    return SampleStore(tmp_path / "wh", backend=store_backend)


def meta_path(store, name="s"):
    return store.get(name).path / "meta.json"


def test_round_trip_preserves_m2_bit_for_bit(store, sample):
    store.put("s", sample)
    meta = json.loads(meta_path(store).read_text())
    assert meta["format"] == 5
    for block in meta["statistics"].values():
        assert set(block) == {"count", "total", "m2"}
    restored = store.get("s").sample.allocation.stats
    orig = sample.allocation.stats
    for column in orig.columns:
        for field in ("count", "total", "m2"):
            np.testing.assert_array_equal(
                getattr(restored.stats_for(column), field),
                getattr(orig.stats_for(column), field),
            )


def test_resume_returns_persisted_m2(store, sample):
    store.put("s", sample)
    stored = store.get("s").sample
    persisted = stored.allocation.stats.stats_for("value").m2
    sampler = StreamingCVOptSampler.resume(stored, ["value"])
    np.testing.assert_array_equal(
        sampler.statistics().stats_for("value").m2, persisted
    )


def test_format4_meta_still_loads(store, sample, openaq_small):
    """A format-4 statistics block carries raw ``total_sq``; reading it
    yields the sigma the legacy formula gave."""
    store.put("s", sample)
    path = meta_path(store)
    meta = json.loads(path.read_text())
    keys = sample.allocation.keys
    countries = np.asarray(openaq_small.column("country").decode())
    parameters = np.asarray(openaq_small.column("parameter").decode())
    values = openaq_small.column("value").values_numeric()
    total_sq = [
        float((values[(countries == c) & (parameters == p)] ** 2).sum())
        for c, p in keys
    ]
    block = meta["statistics"]["value"]
    meta["format"] = 4
    meta["statistics"]["value"] = {
        "count": block["count"],
        "total": block["total"],
        "total_sq": total_sq,
    }
    path.write_text(json.dumps(meta))

    cs = store.get("s").sample.allocation.stats.stats_for("value")
    count = np.asarray(block["count"])
    mean = np.asarray(block["total"]) / count
    legacy_var = np.maximum(np.asarray(total_sq) / count - mean**2, 0.0)
    np.testing.assert_allclose(cs.std, np.sqrt(legacy_var), rtol=1e-9)
    np.testing.assert_array_equal(cs.mean, mean)

    # ``/stats`` accounting reads the same block through the same decoder.
    (entry,) = store.stats()
    summary = entry.columns["stats"]["value"]
    assert summary["populated_strata"] == len(keys)
    finite = np.sqrt(legacy_var) / np.abs(mean)
    assert summary["max_data_cv"] == pytest.approx(finite.max(), rel=1e-9)
