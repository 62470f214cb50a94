"""Tests for the per-shard statistics index and the store append path.

Contract groups:

* **sidecar reuse** — the first ``compute_statistics`` over a store writes
  one summary per shard; every later call with the same (spec, θ, method)
  key loads them instead of re-reading rows, and the reused result is
  bitwise identical to the freshly computed one;
* **integrity** — a tampered or truncated sidecar raises
  :class:`DataError` from both ``StatisticsIndex.load`` and
  ``ShardStore.verify``; a sidecar taken at a different θ is
  garbage-collected on publish, never silently reused;
* **append** — ``ShardStore.append_shards`` grows a store in place with an
  atomic manifest republish: old shard files and their sidecar summaries
  survive untouched, the content digest moves, and a reader's ``reload()``
  adopts the growth without dropping its memmaps;
* **append + recompute ≡ cold rebuild** — statistics over the grown store
  reuse the old shards' summaries, compute only the new ones, and merge to
  a result bitwise identical to a cold rebuild over a sidecar-free copy.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.config import HOLDOUT_BLOCK_ROWS
from repro.core.statistics import compute_statistics, spec_digest, theta_digest
from repro.data.store import (
    ShardManifest,
    ShardStore,
    ShardStoreWriter,
    StatisticsIndex,
    sidecar_filename,
)
from repro.data.synthetic import higgs_like
from repro.evaluation.streaming import StreamingConfig
from repro.exceptions import DataError
from repro.models.logistic_regression import LogisticRegressionSpec


@pytest.fixture
def store_setup(tmp_path):
    data = higgs_like(n_rows=1_600, n_features=5, seed=71)
    directory = tmp_path / "store"
    ShardStore.write(data.head(1_200), directory, shard_rows=300)
    spec = LogisticRegressionSpec(regularization=1e-2)
    theta = spec.fit(data.head(1_200)).theta
    return data, directory, spec, theta


def _strip_sidecars(directory):
    """A copy of ``directory`` with every statistics sidecar removed."""
    clean = str(directory) + "-clean"
    shutil.copytree(directory, clean)
    for name in os.listdir(clean):
        if name.startswith("stats-"):
            os.remove(os.path.join(clean, name))
    manifest = ShardManifest.load(clean)
    ShardManifest(
        name=manifest.name,
        n_rows=manifest.n_rows,
        n_features=manifest.n_features,
        x_dtype=manifest.x_dtype,
        y_dtype=manifest.y_dtype,
        shards=manifest.shards,
        content_digest=manifest.content_digest,
        label_moments=manifest.label_moments,
        version=manifest.version,
        metadata=dict(manifest.metadata),
        statistics=(),
    ).save(clean)
    return clean


# ----------------------------------------------------------------------
# Sidecar reuse
# ----------------------------------------------------------------------
class TestSidecarReuse:
    def test_first_compute_writes_then_reuses(self, store_setup):
        _, directory, spec, theta = store_setup
        source = ShardStore.open(directory).dataset()
        first = compute_statistics(spec, theta, source)
        assert first.computed_shard_summaries == 4
        assert first.reused_shard_summaries == 0
        entry = source.statistics_index().find(
            spec_digest(spec),
            theta_digest(theta),
            first.method.value,
            HOLDOUT_BLOCK_ROWS,
        )
        assert entry is not None
        assert len(entry.shard_digests) == 4

        # A brand-new store handle (cold bootstrap) loads, not recomputes.
        second = compute_statistics(
            spec, theta, ShardStore.open(directory).dataset()
        )
        assert second.reused_shard_summaries == 4
        assert second.computed_shard_summaries == 0
        assert np.array_equal(
            first.covariance.dense(), second.covariance.dense()
        )

    def test_block_rows_mismatch_is_a_miss(self, store_setup):
        # Summaries folded on another block grid differ in their last bits,
        # so a reader with a different block size must not merge them.
        _, directory, spec, theta = store_setup
        compute_statistics(
            spec, theta, ShardStore.open(directory).dataset(),
            streaming=StreamingConfig(block_rows=1_000, n_workers=0),
        )
        at_128 = StreamingConfig(block_rows=128, n_workers=0)
        reread = compute_statistics(
            spec, theta, ShardStore.open(directory).dataset(), streaming=at_128
        )
        assert reread.reused_shard_summaries == 0
        assert reread.computed_shard_summaries == 4
        cold = compute_statistics(
            spec, theta, ShardStore.open(_strip_sidecars(directory)).dataset(),
            streaming=at_128, persist=False,
        )
        assert np.array_equal(reread.covariance.dense(), cold.covariance.dense())
        # The 128-row publish replaced the 1,000-row entry.
        (entry,) = ShardStore.open(directory).manifest.statistics
        assert entry.block_rows == 128

    def test_persist_false_writes_nothing(self, store_setup):
        _, directory, spec, theta = store_setup
        source = ShardStore.open(directory).dataset()
        compute_statistics(spec, theta, source, persist=False)
        assert source.statistics_index().manifest.statistics == ()
        assert not [
            name for name in os.listdir(directory) if name.startswith("stats-")
        ]

    def test_verify_covers_sidecars(self, store_setup):
        _, directory, spec, theta = store_setup
        store = ShardStore.open(directory)
        compute_statistics(spec, theta, store.dataset())
        store.verify()  # pristine store with sidecars passes


# ----------------------------------------------------------------------
# Integrity
# ----------------------------------------------------------------------
class TestSidecarIntegrity:
    def _published_entry(self, directory, spec, theta):
        store = ShardStore.open(directory)
        stats = compute_statistics(spec, theta, store.dataset())
        entry = store.manifest.statistics[0]
        return store, stats, entry

    def test_tampered_sidecar_detected(self, store_setup):
        _, directory, spec, theta = store_setup
        store, _, entry = self._published_entry(directory, spec, theta)
        path = os.path.join(str(directory), entry.file)
        with open(path, "r+b") as handle:
            payload = bytearray(handle.read())
            payload[len(payload) // 2] ^= 0xFF
            handle.seek(0)
            handle.write(payload)
        with pytest.raises(DataError, match="sidecar"):
            store.verify()
        with pytest.raises(DataError):
            StatisticsIndex(store).load(
                entry.spec_digest, entry.theta_digest, entry.method, entry.block_rows
            )

    def test_missing_sidecar_detected(self, store_setup):
        _, directory, spec, theta = store_setup
        store, _, entry = self._published_entry(directory, spec, theta)
        os.remove(os.path.join(str(directory), entry.file))
        with pytest.raises(DataError, match="sidecar"):
            store.verify()

    def test_theta_mismatch_garbage_collected(self, store_setup):
        _, directory, spec, theta = store_setup
        store, _, old_entry = self._published_entry(directory, spec, theta)
        # New θ (a re-trained bootstrap model): publishing its summaries
        # must drop the stale-θ sidecar from manifest and disk.
        compute_statistics(spec, theta + 0.5, store.dataset())
        remaining = store.manifest.statistics
        assert len(remaining) == 1
        assert remaining[0].file != old_entry.file
        assert not os.path.exists(os.path.join(str(directory), old_entry.file))
        assert StatisticsIndex(store).load(
            old_entry.spec_digest,
            old_entry.theta_digest,
            old_entry.method,
            old_entry.block_rows,
        ) == {}
        store.verify()

    def test_filename_is_deterministic(self):
        assert sidecar_filename("a" * 32, "b" * 32, "observed_fisher") == (
            "stats-aaaaaaaa-bbbbbbbb-observed_fisher.npz"
        )


# ----------------------------------------------------------------------
# Append
# ----------------------------------------------------------------------
class TestAppend:
    def test_append_grows_and_preserves(self, store_setup):
        data, directory, spec, theta = store_setup
        store = ShardStore.open(directory)
        compute_statistics(spec, theta, store.dataset())
        old_digest = store.manifest.content_digest
        old_shards = store.manifest.shards
        old_stats = store.manifest.statistics

        store.append_shards([(data.X[1_200:], data.y[1_200:])], shard_rows=300)
        manifest = store.manifest
        assert manifest.n_rows == 1_600
        assert manifest.content_digest != old_digest
        # Old shards are a byte-identical prefix; statistics entries survive.
        assert manifest.shards[: len(old_shards)] == old_shards
        assert manifest.statistics == old_stats
        store.verify()
        # Grown store materialises to exactly the full dataset.
        back = store.dataset().materialize()
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)

    def test_append_and_overwrite_are_exclusive(self, store_setup):
        _, directory, _, _ = store_setup
        with pytest.raises(DataError, match="mutually exclusive"):
            ShardStoreWriter(directory, append=True, overwrite=True)

    def test_reload_adopts_growth(self, store_setup):
        data, directory, _, _ = store_setup
        reader = ShardStore.open(directory).dataset()
        assert reader.n_rows == 1_200
        assert reader.reload() is False  # nothing changed yet
        ShardStore.open(directory).append_shards(
            [(data.X[1_200:], data.y[1_200:])], shard_rows=300
        )
        assert reader.reload() is True
        assert reader.n_rows == 1_600
        assert np.array_equal(reader.materialize().X, data.X)

    @pytest.mark.parametrize(
        "streaming",
        [
            StreamingConfig(n_workers=0),
            StreamingConfig(n_workers=2),
        ],
        ids=["seq", "2thr"],
    )
    def test_stale_handle_publish_keeps_appended_shards(self, store_setup, streaming):
        data, directory, spec, theta = store_setup
        stale = ShardStore.open(directory)  # opened before the append
        ShardStore.open(directory).append_shards(
            [(data.X[1_200:], data.y[1_200:])], shard_rows=300
        )
        # Serial and threaded folds both serve the stale handle's snapshot.
        stats = compute_statistics(spec, theta, stale.dataset(), streaming=streaming)
        assert stats.sample_size == 1_200
        assert stats.computed_shard_summaries == 4
        # The publish through the stale handle applied its sidecar entry to
        # the manifest on disk, so the appended shards survived it.
        reopened = ShardStore.open(directory)
        assert reopened.manifest.n_rows == 1_600
        assert reopened.manifest.n_shards == 6
        assert reopened.statistics_index().find(
            spec_digest(spec),
            theta_digest(theta),
            stats.method.value,
            streaming.block_rows,
        ) is not None
        reopened.verify()

    def test_statistics_only_republish_reports_unchanged(self, store_setup):
        _, directory, spec, theta = store_setup
        reader = ShardStore.open(directory).dataset()
        compute_statistics(spec, theta, ShardStore.open(directory).dataset())
        # The manifest file changed (sidecar entry added) but the row data
        # did not: reload must report "nothing changed" to the session.
        assert reader.reload() is False


# ----------------------------------------------------------------------
# Append + recompute ≡ cold rebuild
# ----------------------------------------------------------------------
class TestAppendThenRecompute:
    def test_incremental_matches_cold_rebuild_bitwise(self, store_setup):
        data, directory, spec, theta = store_setup
        compute_statistics(spec, theta, ShardStore.open(directory).dataset())
        ShardStore.open(directory).append_shards(
            [(data.X[1_200:], data.y[1_200:])], shard_rows=300
        )
        incremental = compute_statistics(
            spec, theta, ShardStore.open(directory).dataset()
        )
        assert incremental.reused_shard_summaries == 4
        assert incremental.computed_shard_summaries == 2

        cold_dir = _strip_sidecars(directory)
        cold = compute_statistics(
            spec, theta, ShardStore.open(cold_dir).dataset(), persist=False
        )
        assert cold.reused_shard_summaries == 0
        assert cold.computed_shard_summaries == 6
        assert np.array_equal(
            incremental.covariance.dense(), cold.covariance.dense()
        )
        assert incremental.sample_size == cold.sample_size == 1_600
