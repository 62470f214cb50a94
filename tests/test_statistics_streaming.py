"""Tests for the streaming statistics tier (repro.core.statistics).

Contract groups, mirroring the tier's load-bearing claims:

* **streaming parity** — ``compute_statistics`` over a sharded,
  block-streamed source matches the materialised in-memory path to 1e-12
  relative error for all five model families, fanned out over threads
  (the TSQR moment summary reproduces the gradient matrix's
  singular structure, not its bytes, so the bound is numerical, not
  bitwise);
* **summary algebra** — the moment summaries merge associatively and
  round-trip through their array form losslessly (the property the sidecar
  persistence and the shard-order fold both rely on);
* **session refresh** — after an append, :meth:`EstimationSession.refresh`
  folds the new shards in and produces statistics *bitwise identical* to a
  cold ``compute_statistics`` over the grown store at the same θ, clears
  the dependent caches, and re-answers standing contracts;
* **registry refresh** — :meth:`SessionRegistry.refresh` updates the
  member fingerprint in place so the next ``get_or_create`` with the grown
  data is a hit, not a teardown;
* **θ_n recompute** — ``train_to(..., recompute_at_theta_n=True)`` reports
  both bounds and their difference in the result metadata.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.contract import ApproximationContract
from repro.core.registry import SessionRegistry
from repro.core.session import EstimationSession, SessionRefresh
from repro.core.statistics import (
    GradientMomentAccumulator,
    StatisticsMethod,
    compute_statistics,
    spec_digest,
    theta_digest,
)
from repro.data.dataset import Dataset
from repro.data.store import ShardStore
from repro.data.synthetic import bikeshare_like, higgs_like, mnist_like
from repro.evaluation.streaming import StreamingConfig
from repro.exceptions import BlinkMLError
from repro.linalg.covariance import FactoredCovariance
from repro.linalg.moments import GradientMomentSummary
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.models.max_entropy import MaxEntropySpec
from repro.models.poisson_regression import PoissonRegressionSpec
from repro.models.ppca import PPCASpec

PARITY_RTOL = 1e-12


def _linear_family():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(900, 5))
    y = X @ rng.normal(size=5) + rng.normal(scale=0.4, size=900)
    return LinearRegressionSpec(regularization=1e-2), Dataset(X, y)


def _logistic_family():
    return LogisticRegressionSpec(regularization=1e-2), higgs_like(
        n_rows=900, n_features=6, seed=22
    )


def _max_entropy_family():
    return MaxEntropySpec(regularization=1e-2), mnist_like(
        n_rows=900, n_features=5, n_classes=3, seed=23
    )


def _poisson_family():
    return PoissonRegressionSpec(regularization=1e-2), bikeshare_like(
        n_rows=900, n_features=5, seed=24
    )


def _ppca_family():
    # Well-conditioned with a separated spectrum: β = 0 means singular-value
    # error enters the covariance through 1/s², so the test data must not
    # have near-degenerate directions.
    rng = np.random.default_rng(25)
    X = rng.normal(size=(900, 5)) * np.array([3.0, 2.2, 1.6, 1.1, 0.7])
    return PPCASpec(n_factors=2, sigma2=1.0), Dataset(X - X.mean(axis=0))


FAMILIES = {
    "linear": _linear_family,
    "logistic": _logistic_family,
    "max_entropy": _max_entropy_family,
    "poisson": _poisson_family,
    "ppca": _ppca_family,
}


def _fitted(family: str):
    spec, data = FAMILIES[family]()
    model = spec.fit(data)
    return spec, model.theta, data


# ----------------------------------------------------------------------
# Streaming parity
# ----------------------------------------------------------------------
class TestStreamingParity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n_workers", [2], ids=["threads"])
    def test_sharded_matches_materialised(self, family, n_workers, tmp_path):
        spec, theta, data = _fitted(family)
        reference = compute_statistics(spec, theta, data)
        sharded = ShardStore.write(data, tmp_path, shard_rows=257).dataset()
        config = StreamingConfig(block_rows=191, n_workers=n_workers)
        streamed = compute_statistics(
            spec, theta, sharded, streaming=config, persist=False
        )
        dense_ref = reference.covariance.dense()
        dense_str = streamed.covariance.dense()
        scale = np.linalg.norm(dense_ref)
        assert np.linalg.norm(dense_str - dense_ref) <= PARITY_RTOL * scale
        assert streamed.sample_size == reference.sample_size == data.n_rows

    @pytest.mark.parametrize(
        "method", ["closed_form", "inverse_gradients", "observed_fisher"]
    )
    def test_all_methods_stream(self, method, tmp_path):
        spec, theta, data = _fitted("logistic")
        reference = compute_statistics(spec, theta, data, method=method)
        sharded = ShardStore.write(data, tmp_path, shard_rows=200).dataset()
        streamed = compute_statistics(
            spec,
            theta,
            sharded,
            method=method,
            streaming=StreamingConfig(block_rows=123, n_workers=2),
            persist=False,
        )
        dense_ref = reference.covariance.dense()
        dense_str = streamed.covariance.dense()
        assert np.linalg.norm(dense_str - dense_ref) <= 1e-9 * np.linalg.norm(
            dense_ref
        )

    def test_plain_dataset_streams_through_same_path(self):
        # An in-memory Dataset is a BlockSource too: the block-folded result
        # must match the old whole-matrix computation.
        spec, theta, data = _fitted("linear")
        whole = compute_statistics(spec, theta, data)
        blocked = compute_statistics(
            spec, theta, data, streaming=StreamingConfig(block_rows=97, n_workers=0)
        )
        dense_a = whole.covariance.dense()
        dense_b = blocked.covariance.dense()
        assert np.linalg.norm(dense_b - dense_a) <= PARITY_RTOL * np.linalg.norm(
            dense_a
        )


# ----------------------------------------------------------------------
# Summary algebra
# ----------------------------------------------------------------------
class TestMomentSummaries:
    def test_merge_matches_whole_matrix(self):
        rng = np.random.default_rng(31)
        Q = rng.normal(size=(300, 4))
        whole = GradientMomentSummary.from_gradients(Q)
        parts = [
            GradientMomentSummary.from_gradients(Q[s : s + 100])
            for s in range(0, 300, 100)
        ]
        merged = parts[0].merge(parts[1]).merge(parts[2])
        assert merged.rows == whole.rows
        # With β = 0 the factor's covariance is J⁻¹ = (QᵀQ / n)⁻¹, so it
        # pins the second moment RᵀR = QᵀQ of both summaries.
        for summary in (merged, whole):
            np.testing.assert_allclose(
                FactoredCovariance.from_gradient_summary(summary).dense(),
                np.linalg.inv(Q.T @ Q / 300),
                rtol=1e-12,
                atol=1e-12,
            )
        np.testing.assert_allclose(merged.gradient_sum, whole.gradient_sum)

    def test_array_roundtrip_is_bitwise(self):
        rng = np.random.default_rng(32)
        summary = GradientMomentSummary.from_gradients(rng.normal(size=(50, 3)))
        back = GradientMomentSummary.from_arrays(summary.to_arrays())
        assert back.rows == summary.rows
        assert np.array_equal(back.r_factor, summary.r_factor)
        assert np.array_equal(back.gradient_sum, summary.gradient_sum)

    def test_accumulator_is_the_canonical_fold(self):
        spec, theta, data = _fitted("logistic")
        accumulator = GradientMomentAccumulator(spec, theta)
        for start in range(0, data.n_rows, 200):
            stop = min(start + 200, data.n_rows)
            accumulator.update(Dataset(data.X[start:stop], data.y[start:stop]))
        summary = accumulator.finalize()
        assert summary.rows == data.n_rows

    def test_digests_discriminate(self):
        spec_a = LogisticRegressionSpec(regularization=1e-2)
        spec_b = LogisticRegressionSpec(regularization=2e-2)
        assert spec_digest(spec_a) == spec_digest(spec_a)
        assert spec_digest(spec_a) != spec_digest(spec_b)
        theta = np.arange(4.0)
        assert theta_digest(theta) == theta_digest(theta.copy())
        assert theta_digest(theta) != theta_digest(theta + 1e-9)
        # probe_eps keys inverse-gradients sidecars but not the others.
        assert theta_digest(
            theta, method=StatisticsMethod.INVERSE_GRADIENTS, probe_eps=1e-5
        ) != theta_digest(
            theta, method=StatisticsMethod.INVERSE_GRADIENTS, probe_eps=1e-6
        )
        assert theta_digest(
            theta, method=StatisticsMethod.OBSERVED_FISHER, probe_eps=1e-5
        ) == theta_digest(theta, method=StatisticsMethod.OBSERVED_FISHER, probe_eps=1e-6)

    def test_default_spec_digests_pinned(self):
        # Warm-cache keys and statistics sidecars embed these digests, so a
        # changed digest orphans every entry persisted before it.
        pinned = {
            LogisticRegressionSpec: "f77e04ab990bf543e19b0d8fac505902",
            LinearRegressionSpec: "d21783ee35db40668953e2d7ab7302ed",
            MaxEntropySpec: "3ed6004bea867603a694d0428b9bafb5",
            PoissonRegressionSpec: "ef5760a6911228b9ba975c8b44a2f54d",
            PPCASpec: "4572bfdde1499aa419a3d8a22ad23fb8",
        }
        for spec_class, digest in pinned.items():
            assert spec_digest(spec_class()) == digest

    def test_spec_digest_needs_no_getstate(self):
        # object.__getstate__ only exists from Python 3.11.
        class NoGetstateSpec(LogisticRegressionSpec):
            def __getstate__(self):
                raise AttributeError("__getstate__")

        digest = spec_digest(NoGetstateSpec(regularization=1e-2))
        assert digest == spec_digest(NoGetstateSpec(regularization=1e-2))
        assert digest != spec_digest(NoGetstateSpec(regularization=2e-2))


# ----------------------------------------------------------------------
# Session refresh
# ----------------------------------------------------------------------
def _split_store(tmp_path, name, data, keep, shard_rows=200):
    directory = tmp_path / name
    ShardStore.write(data.head(keep), directory, shard_rows=shard_rows)
    return directory


class TestSessionRefresh:
    def _session(self, directory, holdout, **kwargs):
        spec = LogisticRegressionSpec(regularization=1e-2)
        return spec, EstimationSession(
            spec,
            ShardStore.open(directory).dataset(),
            holdout,
            statistics_scope="train",
            rng=0,
            initial_sample_size=300,
            **kwargs,
        )

    def test_refresh_is_bitwise_cold_rebuild(self, tmp_path):
        data = higgs_like(n_rows=2_400, n_features=6, seed=41)
        holdout = higgs_like(n_rows=400, n_features=6, seed=42)
        directory = _split_store(tmp_path, "train", data, keep=1_600)
        spec, session = self._session(directory, holdout)
        contract = ApproximationContract(epsilon=1e-4, delta=0.05)
        session.answer(contract)

        ShardStore.open(directory).append_shards(
            [(data.X[1_600:], data.y[1_600:])], shard_rows=200
        )
        refresh = session.refresh()
        assert isinstance(refresh, SessionRefresh)
        assert refresh.changed and refresh.train_changed
        assert refresh.train_rows_before == 1_600
        assert refresh.train_rows_after == 2_400
        assert refresh.statistics_recomputed
        # Sidecar economics: the old shards' summaries are reused, only the
        # appended shards are computed — the O(new shard) refresh claim.
        assert refresh.reused_shard_summaries == 8
        assert refresh.computed_shard_summaries == 4
        # The standing contract was re-answered against the grown data.
        assert len(refresh.reanswered) == 1
        assert refresh.reanswered[0].contract == contract

        # Bitwise invariant: merged refresh statistics == cold rebuild over
        # the grown store at the same θ (identical shard partitions, so the
        # per-shard folds and the left-merge replay identically).
        cold = compute_statistics(
            spec,
            session.initial_model.theta,
            ShardStore.open(directory).dataset(),
            persist=False,
        )
        assert np.array_equal(
            session.statistics.covariance.dense(), cold.covariance.dense()
        )
        assert session.full_size == 2_400

    def test_refresh_without_growth_is_a_noop(self, tmp_path):
        data = higgs_like(n_rows=1_200, n_features=5, seed=43)
        holdout = higgs_like(n_rows=300, n_features=5, seed=44)
        directory = _split_store(tmp_path, "train", data, keep=1_200)
        _, session = self._session(directory, holdout)
        before = session.statistics
        refresh = session.refresh()
        assert not refresh.changed
        assert refresh.reanswered == ()
        assert session.statistics is before

    def test_sample_scope_refresh_keeps_statistics(self, tmp_path):
        # Sample-scope statistics describe the frozen D0 draw; growth
        # invalidates the caches but not the statistics object.
        data = higgs_like(n_rows=1_800, n_features=5, seed=45)
        holdout = higgs_like(n_rows=300, n_features=5, seed=46)
        directory = _split_store(tmp_path, "train", data, keep=1_200)
        spec = LogisticRegressionSpec(regularization=1e-2)
        session = EstimationSession(
            spec,
            ShardStore.open(directory).dataset(),
            holdout,
            rng=0,
            initial_sample_size=300,
        )
        before = session.statistics
        ShardStore.open(directory).append_shards(
            [(data.X[1_200:], data.y[1_200:])], shard_rows=200
        )
        refresh = session.refresh()
        assert refresh.train_changed
        assert not refresh.statistics_recomputed
        assert session.statistics is before
        assert session.full_size == 1_800

    def test_refresh_sees_growth_through_the_writers_store(self, tmp_path):
        # The session reads through the very ShardStore object the writer
        # appends through, whose manifest append_shards replaces in place.
        data = higgs_like(n_rows=1_800, n_features=5, seed=48)
        holdout = higgs_like(n_rows=300, n_features=5, seed=49)
        store = ShardStore.open(_split_store(tmp_path, "train", data, keep=1_200))
        session = EstimationSession(
            LogisticRegressionSpec(regularization=1e-2),
            store.dataset(),
            holdout,
            rng=0,
            initial_sample_size=300,
        )
        store.append_shards([(data.X[1_200:], data.y[1_200:])], shard_rows=200)
        refresh = session.refresh()
        assert refresh.train_changed is True
        assert refresh.train_rows_before == 1_200
        assert session.full_size == 1_800

    def test_invalid_scope_rejected(self, tmp_path):
        data = higgs_like(n_rows=400, n_features=4, seed=47)
        with pytest.raises(BlinkMLError):
            EstimationSession(
                LogisticRegressionSpec(regularization=1e-2),
                data,
                data,
                statistics_scope="everything",
            )


# ----------------------------------------------------------------------
# Registry refresh
# ----------------------------------------------------------------------
class TestRegistryRefresh:
    def test_refresh_updates_fingerprint_in_place(self, tmp_path):
        data = higgs_like(n_rows=1_800, n_features=5, seed=51)
        holdout = higgs_like(n_rows=300, n_features=5, seed=52)
        directory = _split_store(tmp_path, "train", data, keep=1_200)
        spec = LogisticRegressionSpec(regularization=1e-2)
        registry = SessionRegistry(max_total_bytes=64_000_000)
        session = registry.get_or_create(
            "pair",
            spec,
            ShardStore.open(directory).dataset(),
            holdout,
            statistics_scope="train",
            rng=0,
            initial_sample_size=300,
        )
        session.answer(ApproximationContract(epsilon=1e-4, delta=0.05))

        ShardStore.open(directory).append_shards(
            [(data.X[1_200:], data.y[1_200:])], shard_rows=200
        )
        outcome = registry.refresh("pair")
        assert outcome is not None and outcome.train_changed
        stats = registry.stats()
        assert stats.refreshes == 1
        assert stats.fingerprint_invalidations == 0
        # The grown data now fingerprint-matches: same live session served.
        again = registry.get_or_create(
            "pair", spec, ShardStore.open(directory).dataset(), holdout
        )
        assert again is session
        assert registry.stats().fingerprint_invalidations == 0

    def test_refresh_of_unknown_key_is_none(self):
        registry = SessionRegistry()
        assert registry.refresh("missing") is None


# ----------------------------------------------------------------------
# θ_n statistics recompute
# ----------------------------------------------------------------------
class TestRecomputeAtThetaN:
    def test_metadata_reports_both_bounds(self):
        rng = np.random.default_rng(61)
        X = rng.normal(size=(3_000, 4))
        y = X @ rng.normal(size=4) + rng.normal(scale=0.5, size=3_000)
        data = Dataset(X, y)
        holdout = Dataset(X[:400].copy(), y[:400].copy())
        spec = LinearRegressionSpec(regularization=1e-2)
        session = EstimationSession(
            spec, data, holdout, rng=0, initial_sample_size=200
        )
        contract = ApproximationContract(epsilon=0.05, delta=0.05)
        result = session.train_to(contract, recompute_at_theta_n=True)
        if result.used_initial_model or result.sample_size >= data.n_rows:
            pytest.skip("contract resolved without an intermediate model")
        assert result.metadata["recomputed_at_theta_n"] is True
        eps0 = result.metadata["epsilon_theta0_stats"]
        eps_n = result.metadata["epsilon_theta_n_stats"]
        assert result.metadata["bound_tightening"] == pytest.approx(eps0 - eps_n)
        assert result.estimated_epsilon == eps_n

    def test_flag_off_leaves_metadata_unchanged(self):
        rng = np.random.default_rng(62)
        X = rng.normal(size=(2_000, 4))
        y = X @ rng.normal(size=4) + rng.normal(scale=0.5, size=2_000)
        data = Dataset(X, y)
        holdout = Dataset(X[:300].copy(), y[:300].copy())
        session = EstimationSession(
            LinearRegressionSpec(regularization=1e-2),
            data,
            holdout,
            rng=0,
            initial_sample_size=200,
        )
        result = session.train_to(ApproximationContract(epsilon=0.05, delta=0.05))
        assert "recomputed_at_theta_n" not in result.metadata
