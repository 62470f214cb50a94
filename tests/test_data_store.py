"""Tests for the out-of-core shard store (repro.data.store).

Four contract groups, mirroring the subsystem's load-bearing claims:

* **write→read roundtrip** — a store materialises, gathers and samples
  bitwise-identically to the in-memory :class:`Dataset` it was written
  from, independent of shard size;
* **digest compatibility** — the manifest-level content digest equals
  ``Dataset.content_digest()`` of the same data (the registry fingerprints
  sharded members without materialising them), and any tampering with the
  shard files or manifest is detected;
* **streaming parity** — accuracy/sample-size-relevant streamed diffs over
  a ``ShardedDataset`` match the in-memory path bitwise for classification
  families and to 1e-12 for regression, folded serially and on threads;
* **strict failure** — partial or corrupt stores (truncated manifest,
  missing shards, header mismatches) refuse to open rather than serving
  questionable rows.
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.core.session import EstimationSession
from repro.core.contract import ApproximationContract
from repro.core.registry import SessionRegistry
from repro.data.dataset import Dataset
from repro.data.sampling import UniformSampler
from repro.data.store import (
    MANIFEST_FILENAME,
    LabelMoments,
    ShardManifest,
    ShardStore,
    ShardStoreWriter,
    ShardedDataset,
    write_blocks,
)
from repro.data.synthetic import higgs_like, power_like
from repro.evaluation.streaming import (
    StreamingConfig,
    streaming_fanout_pairwise_prediction_differences,
    streaming_prediction_differences,
)
from repro.exceptions import DataError, ModelSpecError
from repro.models.base import ModelClassSpec
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec


@pytest.fixture(scope="module")
def cls_data() -> Dataset:
    return higgs_like(n_rows=2_000, n_features=6, seed=11)


@pytest.fixture(scope="module")
def reg_data() -> Dataset:
    return power_like(n_rows=1_500, n_features=5, seed=12)


def write_store(dataset: Dataset, directory, shard_rows: int = 256) -> ShardedDataset:
    return ShardStore.write(dataset, directory, shard_rows=shard_rows).dataset()


def scalar_diffs(spec, theta, Thetas, dataset: Dataset) -> np.ndarray:
    """The scalar reference: ``prediction_difference`` against θ, pair by pair."""
    return np.array([spec.prediction_difference(theta, other, dataset) for other in Thetas])


# ----------------------------------------------------------------------
# Write → read roundtrip
# ----------------------------------------------------------------------
class TestRoundtrip:
    @pytest.mark.parametrize("shard_rows", [64, 256, 999, 5_000])
    def test_materialize_is_bitwise_identical(self, cls_data, tmp_path, shard_rows):
        sharded = write_store(cls_data, tmp_path, shard_rows=shard_rows)
        back = sharded.materialize()
        assert np.array_equal(back.X, cls_data.X)
        assert np.array_equal(back.y, cls_data.y)
        assert back.y.dtype == cls_data.y.dtype
        assert sharded.n_rows == cls_data.n_rows
        assert sharded.n_features == cls_data.n_features
        assert sharded.is_supervised

    def test_take_matches_dataset_take(self, cls_data, tmp_path):
        sharded = write_store(cls_data, tmp_path)
        rng = np.random.default_rng(0)
        for size in (1, 7, 500, cls_data.n_rows):
            indices = rng.permutation(cls_data.n_rows)[:size]
            expected = cls_data.take(indices)
            actual = sharded.take(indices)
            assert np.array_equal(actual.X, expected.X)
            assert np.array_equal(actual.y, expected.y)

    def test_take_validates_indices(self, cls_data, tmp_path):
        sharded = write_store(cls_data, tmp_path)
        with pytest.raises(DataError):
            sharded.take(np.array([], dtype=np.intp))
        with pytest.raises(DataError):
            sharded.take(np.array([cls_data.n_rows]))
        with pytest.raises(DataError):
            sharded.take(np.array([-1]))

    def test_uniform_sampler_draws_identically_from_shards(self, cls_data, tmp_path):
        sharded = write_store(cls_data, tmp_path)
        mem = UniformSampler(cls_data, rng=np.random.default_rng(3))
        ooc = UniformSampler(sharded, rng=np.random.default_rng(3))
        for n in (10, 50, 200):
            a, b = mem.nested_sample(n), ooc.nested_sample(n)
            assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        a, b = mem.sample(100), ooc.sample(100)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_unsupervised_store(self, tmp_path):
        data = Dataset(np.random.default_rng(0).normal(size=(300, 4)))
        sharded = write_store(data, tmp_path, shard_rows=100)
        assert not sharded.is_supervised
        assert np.array_equal(sharded.materialize().X, data.X)
        with pytest.raises(DataError):
            sharded.label_std()
        # Misusing a normalised regression metric on it raises the same
        # ModelSpecError as the in-memory path, not a manifest DataError.
        spec = LinearRegressionSpec()
        with pytest.raises(ModelSpecError, match="needs holdout labels"):
            spec.diff_accumulator(np.zeros(4), np.zeros((2, 4)), sharded.materialize())
        with pytest.raises(ModelSpecError, match="needs holdout labels"):
            spec.diff_accumulator(np.zeros(4), np.zeros((2, 4)), sharded)

    def test_writer_buffers_uneven_blocks_into_even_shards(self, cls_data, tmp_path):
        writer = ShardStoreWriter(tmp_path, shard_rows=300, name=cls_data.name)
        cuts = [0, 17, 17, 450, 451, 1_200, cls_data.n_rows]
        for start, stop in zip(cuts, cuts[1:]):
            if stop > start:
                writer.append(cls_data.X[start:stop], cls_data.y[start:stop])
        store = writer.close()
        shards = store.manifest.shards
        assert [s.n_rows for s in shards[:-1]] == [300] * (len(shards) - 1)
        assert store.manifest.content_digest == cls_data.content_digest()

    def test_write_blocks_helper(self, cls_data, tmp_path):
        blocks = [
            (cls_data.X[s : s + 401], cls_data.y[s : s + 401])
            for s in range(0, cls_data.n_rows, 401)
        ]
        store = write_blocks(blocks, tmp_path, shard_rows=256, name="blocks")
        assert store.manifest.name == "blocks"
        assert store.manifest.content_digest == cls_data.content_digest()

    def test_writer_copies_reused_caller_buffers(self, tmp_path):
        # The natural ETL loop reuses one block buffer between appends; the
        # writer must own its pending rows, or the last fill silently
        # rewrites every buffered block (and the digests, computed at flush
        # time, would verify the corruption clean).
        X_buf = np.empty((10, 2))
        y_buf = np.empty(10)
        writer = ShardStoreWriter(tmp_path, shard_rows=100)
        for value in (0.0, 1.0, 2.0):
            X_buf[:] = value
            y_buf[:] = value
            writer.append(X_buf, y_buf)
        store = writer.close()
        back = store.dataset().materialize()
        expected = np.repeat([0.0, 1.0, 2.0], 10)
        assert np.array_equal(back.X[:, 0], expected)
        assert np.array_equal(back.y, expected)
        store.verify()

    def test_writer_rejects_schema_drift(self, tmp_path):
        writer = ShardStoreWriter(tmp_path, shard_rows=10)
        writer.append(np.ones((5, 3)), np.ones(5))
        with pytest.raises(DataError):
            writer.append(np.ones((5, 4)), np.ones(5))  # feature count drift
        with pytest.raises(DataError):
            writer.append(np.ones((5, 3)))  # labels disappeared
        with pytest.raises(DataError):
            writer.append(np.ones((5, 3)), np.ones(5, dtype=np.int32))  # dtype drift
        with pytest.raises(DataError):
            writer.append(np.ones((0, 3)), np.ones(0))  # empty block
        writer.close()
        with pytest.raises(DataError):
            writer.append(np.ones((5, 3)), np.ones(5))  # closed

    def test_writer_refuses_to_clobber_without_overwrite(self, cls_data, tmp_path):
        ShardStore.write(cls_data.head(10), tmp_path, shard_rows=8)
        with pytest.raises(DataError):
            ShardStoreWriter(tmp_path)
        # Explicit overwrite replaces the store.
        store = ShardStore.write(
            cls_data.head(20), tmp_path, shard_rows=8, overwrite=True
        )
        assert store.n_rows == 20
        # No stale shard files from the narrower first store survive.
        store.verify()
        shard_files = [f for f in os.listdir(store.directory) if f.endswith(".npy")]
        assert len(shard_files) == 2 * store.n_shards

    def test_crashed_overwrite_leaves_unopenable_store_not_stale_data(
        self, cls_data, tmp_path
    ):
        # The old manifest must go *before* the rewrite starts: a crash
        # mid-overwrite must leave a directory ShardStore.open rejects,
        # never an old manifest over mixed old/new shard data (which would
        # open cleanly and fingerprint as the old content).
        ShardStore.write(cls_data.head(100), tmp_path, shard_rows=50)
        writer = ShardStoreWriter(tmp_path, shard_rows=50, overwrite=True)
        writer.append(np.zeros((60, cls_data.n_features)), np.zeros(60))  # flushes one shard
        # Simulated crash: writer never closed.
        with pytest.raises(DataError, match="not a shard store"):
            ShardStore.open(tmp_path)


# ----------------------------------------------------------------------
# Digest stability and tamper detection
# ----------------------------------------------------------------------
class TestDigests:
    def test_manifest_digest_equals_in_memory_digest(self, cls_data, reg_data, tmp_path):
        for name, data in (("cls", cls_data), ("reg", reg_data)):
            sharded = write_store(data, tmp_path / name)
            assert sharded.content_digest() == data.content_digest()

    def test_digest_independent_of_shard_size(self, cls_data, tmp_path):
        digests = {
            write_store(cls_data, tmp_path / str(rows), shard_rows=rows).content_digest()
            for rows in (128, 600, 10_000)
        }
        assert digests == {cls_data.content_digest()}

    def test_digest_changes_with_content(self, cls_data, tmp_path):
        sharded = write_store(cls_data, tmp_path / "a")
        changed_X = np.asarray(cls_data.X).copy()
        changed_X[123, 2] += 1e-9
        changed = Dataset(changed_X, np.asarray(cls_data.y).copy())
        other = write_store(changed, tmp_path / "b")
        assert other.content_digest() != sharded.content_digest()

    def test_verify_detects_shard_tampering(self, cls_data, tmp_path):
        store = ShardStore.write(cls_data, tmp_path, shard_rows=256)
        store.verify()  # intact store passes
        shard = store.manifest.shards[2]
        path = os.path.join(store.directory, shard.x_file)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF  # flip one byte of row data
        open(path, "wb").write(bytes(data))
        reopened = ShardStore.open(tmp_path)  # header still valid
        with pytest.raises(DataError, match="digest mismatch"):
            reopened.verify()

    def test_verify_detects_manifest_digest_tampering(self, cls_data, tmp_path):
        store = ShardStore.write(cls_data, tmp_path, shard_rows=512)
        manifest_path = os.path.join(store.directory, MANIFEST_FILENAME)
        payload = json.loads(open(manifest_path).read())
        payload["content_digest"] = "0" * 32
        open(manifest_path, "w").write(json.dumps(payload))
        with pytest.raises(DataError, match="digest mismatch"):
            ShardStore.open(tmp_path).verify()

    def test_verify_detects_label_moment_tampering(self, reg_data, tmp_path):
        # The moments are manifest-resident *derived* data feeding the
        # normalised regression scale; they are outside the row-data digest
        # so verify() must re-derive and compare them.
        store = ShardStore.write(reg_data, tmp_path, shard_rows=256)
        manifest_path = os.path.join(store.directory, MANIFEST_FILENAME)
        payload = json.loads(open(manifest_path).read())
        payload["label_moments"]["m2"] *= 100.0
        open(manifest_path, "w").write(json.dumps(payload))
        tampered = ShardStore.open(tmp_path)  # structurally valid
        with pytest.raises(DataError, match="label moments mismatch"):
            tampered.verify()

    def test_open_rejects_supervised_manifest_without_moments(self, reg_data, tmp_path):
        # Stripping the moments from a supervised manifest must fail at
        # open — not surface later as a misleading AttributeError in
        # verify() or an "unsupervised" label_std() error.
        store = ShardStore.write(reg_data, tmp_path, shard_rows=256)
        manifest_path = os.path.join(store.directory, MANIFEST_FILENAME)
        payload = json.loads(open(manifest_path).read())
        payload["label_moments"] = None
        open(manifest_path, "w").write(json.dumps(payload))
        with pytest.raises(DataError, match="label moments must be present"):
            ShardStore.open(tmp_path)

    def test_open_rejects_moment_count_mismatch(self, reg_data, tmp_path):
        store = ShardStore.write(reg_data, tmp_path, shard_rows=256)
        manifest_path = os.path.join(store.directory, MANIFEST_FILENAME)
        payload = json.loads(open(manifest_path).read())
        payload["label_moments"]["count"] += 1
        open(manifest_path, "w").write(json.dumps(payload))
        with pytest.raises(DataError, match="label moments cover"):
            ShardStore.open(tmp_path)

    def test_rewrite_after_crash_leaves_no_stray_shards(self, cls_data, tmp_path):
        # A crashed write leaves shards without a manifest; a successful
        # re-run into the same directory must clear them, not strand alien
        # row data beside a store whose manifest never references it.
        writer = ShardStoreWriter(tmp_path, shard_rows=100)
        writer.append(np.asarray(cls_data.X)[:950], np.asarray(cls_data.y)[:950])
        # crash: never closed — 9 full shards on disk, no manifest
        store = ShardStore.write(cls_data.head(300), tmp_path, shard_rows=100)
        store.verify()
        shard_files = [
            f for f in os.listdir(store.directory)
            if f.startswith("shard-") and f.endswith(".npy")
        ]
        assert len(shard_files) == 2 * store.n_shards == 6

    def test_nan_labels_verify_clean(self, tmp_path):
        # Dataset permits NaN labels; a pristine store holding them must
        # not be flagged as tampered (IEEE nan != nan in the moments).
        rng = np.random.default_rng(5)
        y = rng.normal(size=400)
        y[7] = np.nan
        data = Dataset(rng.normal(size=(400, 3)), y)
        store = ShardStore.write(data, tmp_path, shard_rows=128)
        store.verify()
        assert store.manifest.content_digest == data.content_digest()

    def test_close_is_retryable_after_transient_failure(
        self, cls_data, tmp_path, monkeypatch
    ):
        writer = ShardStoreWriter(tmp_path, shard_rows=300)
        writer.append(np.asarray(cls_data.X)[:500], np.asarray(cls_data.y)[:500])
        calls = {"n": 0}
        original = ShardManifest.save

        def flaky(manifest, directory):
            if calls["n"] == 0:
                calls["n"] += 1
                raise OSError("disk hiccup")
            return original(manifest, directory)

        monkeypatch.setattr(ShardManifest, "save", flaky)
        with pytest.raises(OSError):
            writer.close()
        # The transient failure must not wedge the writer: a retry redoes
        # the digest + save and returns a fully valid store.
        store = writer.close()
        store.verify()
        assert store.n_rows == 500

    def test_flush_failure_does_not_lose_pending_rows(
        self, cls_data, tmp_path, monkeypatch
    ):
        # np.save failing mid-flush must push the taken rows back: a
        # retried close() would otherwise publish a *truncated* store whose
        # digests all verify clean (silent data loss).
        writer = ShardStoreWriter(tmp_path, shard_rows=300)
        writer.append(np.asarray(cls_data.X)[:1_000], np.asarray(cls_data.y)[:1_000])
        calls = {"n": 0}
        original = np.save

        def flaky(path, array):
            if calls["n"] == 0:
                calls["n"] += 1
                raise OSError("no space left on device")
            return original(path, array)

        monkeypatch.setattr(np, "save", flaky)
        with pytest.raises(OSError):
            writer.close()  # remainder flush fails on the first save
        store = writer.close()  # retry flushes the restored rows
        store.verify()
        assert store.n_rows == 1_000
        back = store.dataset().materialize()
        assert np.array_equal(back.X, np.asarray(cls_data.X)[:1_000])
        assert np.array_equal(back.y, np.asarray(cls_data.y)[:1_000])

    def test_label_std_matches_numpy(self, reg_data, tmp_path):
        sharded = write_store(reg_data, tmp_path, shard_rows=97)
        assert sharded.label_std() == pytest.approx(float(np.std(reg_data.y)), abs=1e-12)

    def test_label_moments_combine(self):
        rng = np.random.default_rng(1)
        y = rng.normal(loc=50.0, scale=3.0, size=1_000)
        moments = LabelMoments(count=0, mean=0.0, m2=0.0)
        for block in np.array_split(y, 7):
            mean = float(block.mean())
            moments = moments.combined(
                count=block.size, mean=mean, m2=float(np.sum((block - mean) ** 2))
            )
        assert moments.std == pytest.approx(float(np.std(y)), abs=1e-12)


# ----------------------------------------------------------------------
# Partial / corrupt stores must refuse to open
# ----------------------------------------------------------------------
class TestCorruptStores:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="not a shard store"):
            ShardStore.open(tmp_path)

    def test_truncated_manifest(self, cls_data, tmp_path):
        ShardStore.write(cls_data, tmp_path, shard_rows=512)
        manifest_path = os.path.join(os.fspath(tmp_path), MANIFEST_FILENAME)
        text = open(manifest_path).read()
        open(manifest_path, "w").write(text[: len(text) // 2])
        with pytest.raises(DataError, match="corrupt"):
            ShardStore.open(tmp_path)

    def test_missing_shard_file(self, cls_data, tmp_path):
        store = ShardStore.write(cls_data, tmp_path, shard_rows=512)
        os.remove(os.path.join(store.directory, store.manifest.shards[1].x_file))
        with pytest.raises(DataError, match="missing shard file"):
            ShardStore.open(tmp_path)

    def test_shard_header_mismatch(self, cls_data, tmp_path):
        store = ShardStore.write(cls_data, tmp_path, shard_rows=512)
        shard = store.manifest.shards[0]
        np.save(
            os.path.join(store.directory, shard.x_file),
            np.zeros((shard.n_rows + 1, cls_data.n_features)),
        )
        with pytest.raises(DataError, match="manifest expects"):
            ShardStore.open(tmp_path)

    def test_unknown_manifest_version(self, cls_data, tmp_path):
        ShardStore.write(cls_data, tmp_path, shard_rows=512)
        manifest_path = os.path.join(os.fspath(tmp_path), MANIFEST_FILENAME)
        payload = json.loads(open(manifest_path).read())
        payload["version"] = 99
        open(manifest_path, "w").write(json.dumps(payload))
        with pytest.raises(DataError, match="version"):
            ShardStore.open(tmp_path)

    def test_non_tiling_shards_rejected(self, cls_data, tmp_path):
        ShardStore.write(cls_data, tmp_path, shard_rows=512)
        manifest_path = os.path.join(os.fspath(tmp_path), MANIFEST_FILENAME)
        payload = json.loads(open(manifest_path).read())
        payload["shards"][1]["start"] += 1  # leave a one-row hole
        open(manifest_path, "w").write(json.dumps(payload))
        with pytest.raises(DataError, match="tile"):
            ShardStore.open(tmp_path)

    def test_manifest_json_roundtrip_and_shard_lookup(self, cls_data, tmp_path):
        store = ShardStore.write(cls_data, tmp_path, shard_rows=300)
        manifest = ShardManifest.from_json(store.manifest.to_json())
        assert manifest == store.manifest
        for row in (0, 299, 300, cls_data.n_rows - 1):
            shard = manifest.shard_for_row(row)
            assert shard.start <= row < shard.stop
        with pytest.raises(DataError):
            manifest.shard_for_row(cls_data.n_rows)


# ----------------------------------------------------------------------
# Block source behaviour
# ----------------------------------------------------------------------
class TestBlockSource:
    def test_bounds_snap_to_shard_boundaries(self, cls_data, tmp_path):
        sharded = write_store(cls_data, tmp_path, shard_rows=300)
        bounds = sharded.block_bounds(128)
        assert bounds[0] == (0, 128)
        assert (bounds[-1][1]) == cls_data.n_rows
        # Contiguous coverage, and no bound crosses a 300-row shard edge.
        for (a_start, a_stop), (b_start, _) in zip(bounds, bounds[1:]):
            assert a_stop == b_start
        for start, stop in bounds:
            assert stop - start <= 128
            assert start // 300 == (stop - 1) // 300

    def test_blocks_are_memory_mapped_views(self, cls_data, tmp_path):
        sharded = write_store(cls_data, tmp_path, shard_rows=300)
        block = sharded.read_block(*sharded.block_bounds(128)[0])
        assert isinstance(block, Dataset)
        base = block.X.base
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)

    def test_blocks_concatenate_to_the_dataset(self, cls_data, tmp_path):
        sharded = write_store(cls_data, tmp_path, shard_rows=300)
        X = np.concatenate(
            [sharded.read_block(*bounds).X for bounds in sharded.block_bounds(128)],
            axis=0,
        )
        assert np.array_equal(X, cls_data.X)

    def test_cross_shard_read_block_still_correct(self, cls_data, tmp_path):
        sharded = write_store(cls_data, tmp_path, shard_rows=300)
        block = sharded.read_block(250, 450)  # crosses the first shard edge
        assert np.array_equal(block.X, np.asarray(cls_data.X)[250:450])

    def test_memmap_cache_is_bounded_on_many_shard_stores(self, cls_data, tmp_path):
        # 100 shards, streamed end to end: the instance must keep at most
        # MAX_CACHED_SHARDS shards' memory maps open (unbounded caching
        # exhausts the process fd limit on large stores).
        sharded = write_store(cls_data, tmp_path, shard_rows=20)
        assert sharded.manifest.n_shards == 100
        total = 0
        for block in sharded.iter_blocks(20):
            total += block.n_rows
            assert len(sharded._memmaps) <= ShardedDataset.MAX_CACHED_SHARDS
        assert total == cls_data.n_rows
        # Gathers across every shard stay bounded too, and stay correct.
        indices = np.random.default_rng(0).permutation(cls_data.n_rows)[:500]
        assert np.array_equal(sharded.take(indices).X, cls_data.take(indices).X)
        assert len(sharded._memmaps) <= ShardedDataset.MAX_CACHED_SHARDS

    def test_ppca_streams_sharded_holdout_without_materializing(self, tmp_path):
        # PPCA's metric is parameter-space: evaluating over a sharded
        # holdout must read only the manifest schema, never the rows.
        from repro.models.ppca import PPCASpec

        data = Dataset(np.random.default_rng(2).normal(size=(600, 8)))
        sharded = write_store(data, tmp_path, shard_rows=100)
        spec = PPCASpec(n_factors=2)
        p = spec.n_parameters(data)
        rng = np.random.default_rng(3)
        theta, Thetas = rng.normal(size=p), rng.normal(size=(5, p))
        expected = scalar_diffs(spec, theta, Thetas, data)
        actual = streaming_prediction_differences(
            spec, theta, Thetas, sharded, StreamingConfig(block_rows=100)
        )
        np.testing.assert_allclose(actual, expected, atol=1e-15)
        # No shard was ever opened: the accumulator skipped the block loop
        # and the factory touched only n_features from the manifest.
        assert len(sharded._memmaps) == 0



# ----------------------------------------------------------------------
# Streaming parity: in-memory Dataset vs ShardedDataset, serial and threaded
# ----------------------------------------------------------------------
def sampled_parameters(d: int, k: int = 12, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=d), rng.normal(size=(k, d)), rng.normal(size=(k, d))


BACKENDS = [
    StreamingConfig(block_rows=128),
    StreamingConfig(block_rows=128, n_workers=3),
]


class TestStreamingParity:
    @pytest.mark.parametrize("config", BACKENDS, ids=["serial", "threads"])
    def test_classification_bitwise(self, cls_data, tmp_path, config):
        sharded = write_store(cls_data, tmp_path, shard_rows=300)
        spec = LogisticRegressionSpec(regularization=1e-3)
        theta, Thetas, Thetas_b = sampled_parameters(cls_data.n_features)
        expected = streaming_prediction_differences(
            spec, theta, Thetas, cls_data, StreamingConfig(block_rows=128)
        )
        actual = streaming_prediction_differences(spec, theta, Thetas, sharded, config)
        assert np.array_equal(actual, expected)
        expected_pair = streaming_fanout_pairwise_prediction_differences(
            spec, [(Thetas, Thetas_b)], cls_data, StreamingConfig(block_rows=128)
        )[0]
        actual_pair = streaming_fanout_pairwise_prediction_differences(
            spec, [(Thetas, Thetas_b)], sharded, config
        )[0]
        assert np.array_equal(actual_pair, expected_pair)

    @pytest.mark.parametrize("config", BACKENDS, ids=["serial", "threads"])
    def test_regression_within_1e12(self, reg_data, tmp_path, config):
        sharded = write_store(reg_data, tmp_path, shard_rows=300)
        spec = LinearRegressionSpec(regularization=1e-3)
        theta, Thetas, Thetas_b = sampled_parameters(reg_data.n_features)
        expected = streaming_prediction_differences(
            spec, theta, Thetas, reg_data, StreamingConfig(block_rows=128)
        )
        actual = streaming_prediction_differences(spec, theta, Thetas, sharded, config)
        np.testing.assert_allclose(actual, expected, atol=1e-12)
        expected_pair = streaming_fanout_pairwise_prediction_differences(
            spec, [(Thetas, Thetas_b)], reg_data, StreamingConfig(block_rows=128)
        )[0]
        actual_pair = streaming_fanout_pairwise_prediction_differences(
            spec, [(Thetas, Thetas_b)], sharded, config
        )[0]
        np.testing.assert_allclose(actual_pair, expected_pair, atol=1e-12)

    def test_generic_fallback_materializes_sharded_source(self, cls_data, tmp_path):
        class NoStreamingSpec(LogisticRegressionSpec):
            """A custom spec without streaming decompositions."""

            diff_accumulator = ModelClassSpec.diff_accumulator
            pairwise_diff_accumulator = ModelClassSpec.pairwise_diff_accumulator

        sharded = write_store(cls_data, tmp_path, shard_rows=300)
        spec = NoStreamingSpec(regularization=1e-3)
        theta, Thetas, _ = sampled_parameters(cls_data.n_features)
        expected = scalar_diffs(spec, theta, Thetas, cls_data)
        actual = streaming_prediction_differences(
            spec, theta, Thetas, sharded, StreamingConfig(block_rows=128)
        )
        assert np.array_equal(actual, expected)


# ----------------------------------------------------------------------
# Serving layers over sharded data
# ----------------------------------------------------------------------
def split_rows(data: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    train = data.take(np.arange(n_train))
    holdout = data.take(np.arange(n_train, data.n_rows))
    return train, holdout


class TestServingFromShards:
    @pytest.mark.parametrize(
        "config",
        [
            StreamingConfig(block_rows=100),
            StreamingConfig(block_rows=100, n_workers=2),
        ],
        ids=["serial", "threads"],
    )
    def test_session_bitwise_identical_to_in_memory(self, cls_data, tmp_path, config):
        train, holdout = split_rows(cls_data, 1_500)
        spec = LogisticRegressionSpec(regularization=1e-3)
        kwargs = dict(initial_sample_size=200, n_parameter_samples=16, rng=0)
        mem = EstimationSession(
            spec, train, holdout, streaming=StreamingConfig(block_rows=100), **kwargs
        )
        ooc = EstimationSession(
            spec,
            ShardStore.write(train, tmp_path / "train", shard_rows=400).dataset(),
            ShardStore.write(holdout, tmp_path / "holdout", shard_rows=200).dataset(),
            streaming=config,
            **kwargs,
        )
        assert np.array_equal(mem.initial_model.theta, ooc.initial_model.theta)
        for epsilon in (0.02, 0.05):
            contract = ApproximationContract(epsilon=epsilon, delta=0.05)
            a, b = mem.answer(contract), ooc.answer(contract)
            assert a.satisfied == b.satisfied
            assert a.estimate.epsilon == b.estimate.epsilon
            ra, rb = mem.train_to(contract), ooc.train_to(contract)
            assert ra.sample_size == rb.sample_size
            assert np.array_equal(ra.model.theta, rb.model.theta)

    @pytest.mark.parametrize("n_workers", [3], ids=["threads"])
    def test_fanned_out_session_answers_like_serial(self, tmp_path, n_workers):
        # A session's answers depend on its data and seed alone: fanning the
        # holdout passes out over 3 workers changes no bit.  (Not comparable
        # with an in-memory session: the Lin label scale comes from manifest
        # moments here and from np.std there.)
        data = power_like(n_rows=3_000, n_features=5, seed=12)
        train, holdout = split_rows(data, 2_000)
        spec = LinearRegressionSpec(regularization=1e-3)

        def open_session(workers, directory):
            return EstimationSession(
                spec,
                ShardStore.write(train, directory / "train", shard_rows=500).dataset(),
                ShardStore.write(holdout, directory / "holdout", shard_rows=250).dataset(),
                streaming=StreamingConfig(block_rows=50, n_workers=workers),
                initial_sample_size=200,
                n_parameter_samples=16,
                rng=0,
            )

        serial = open_session(0, tmp_path / "serial")
        fanned = open_session(n_workers, tmp_path / "fanned")
        assert serial.initial_model.theta.tobytes() == fanned.initial_model.theta.tobytes()
        for epsilon in (0.02, 0.05):
            contract = ApproximationContract(epsilon=epsilon, delta=0.05)
            a, b = serial.answer(contract), fanned.answer(contract)
            assert a.satisfied == b.satisfied
            assert a.estimate.epsilon == b.estimate.epsilon
            ra, rb = serial.train_to(contract), fanned.train_to(contract)
            assert ra.sample_size == rb.sample_size
            assert ra.model.theta.tobytes() == rb.model.theta.tobytes()

    def test_registry_fingerprints_sharded_members_without_materializing(
        self, cls_data, tmp_path
    ):
        train, holdout = split_rows(cls_data, 1_500)
        spec = LogisticRegressionSpec(regularization=1e-3)
        kwargs = dict(initial_sample_size=150, n_parameter_samples=8, rng=0)
        sharded_train = ShardStore.write(train, tmp_path / "t", shard_rows=400).dataset()
        sharded_holdout = ShardStore.write(holdout, tmp_path / "h", shard_rows=200).dataset()
        registry = SessionRegistry(max_sessions=4, max_total_bytes=1 << 20)
        first = registry.get_or_create("pair", spec, sharded_train, sharded_holdout, **kwargs)
        again = registry.get_or_create("pair", spec, sharded_train, sharded_holdout, **kwargs)
        assert first is again
        # The fingerprint equals the in-memory fingerprint for the same data,
        # so tiers can be mixed without aliasing distinct datasets.
        assert registry.fingerprint(sharded_train, sharded_holdout) == (
            registry.fingerprint(train, holdout)
        )
        assert registry.get_or_create("pair", spec, train, holdout, **kwargs) is first
        # A store with different content misses (stale session discarded).
        changed = Dataset(np.asarray(train.X) + 1.0, train.y)
        changed_store = ShardStore.write(
            changed, tmp_path / "t2", shard_rows=400
        ).dataset()
        fresh = registry.get_or_create(
            "pair", spec, changed_store, sharded_holdout, **kwargs
        )
        assert fresh is not first
        assert registry.stats().fingerprint_invalidations == 1


# ----------------------------------------------------------------------
# Spec pickling
# ----------------------------------------------------------------------
class TestAccumulatorTransport:
    def test_specs_pickle_round_trip(self):
        spec = LogisticRegressionSpec(regularization=1e-3)
        clone = pickle.loads(pickle.dumps(spec))
        assert type(clone) is LogisticRegressionSpec
        assert vars(clone) == vars(spec)
