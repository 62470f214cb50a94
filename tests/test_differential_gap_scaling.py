"""Differential: Lin's size search from one streamed pass changes no answer.

Lin's pairwise diff is the RMS of ``X_h(θ_a − θ_b)`` over the holdout, a
seminorm of the gap, and stage two draws ``θ_N − θ_n = √(1/n − 1/N) · B``
from the cached base draws B.  So ``SampleSizeEstimator.estimate_many``
streams ``c = diff(B, 0)`` once per call and gives candidate n the vector
``√(1/n − 1/N) · c``.  A subclass whose ``pairwise_diff_accumulator`` calls
the parent's takes the streamed path, one pass per round, and must train to
the same sample size, θ bytes, ε estimate and probe schedule.

The search then has a closed form (ROADMAP item 3): the smallest n whose
Lemma 2 order statistic ``√(1/n − 1/N) · c_(q)`` is at most ε.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.contract import ApproximationContract
from repro.core.coordinator import BlinkML
from repro.core.guarantees import conservative_quantile_level, conservative_upper_bound
from repro.core.parameter_sampler import ParameterSampler
from repro.core.sample_size import SampleSizeEstimator
from repro.core.session import EstimationSession
from repro.core.statistics import compute_statistics
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.store import ShardStore
from repro.data.synthetic import gas_like, higgs_like
from repro.evaluation.streaming import StreamingConfig, streaming_pass_count
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.models.max_entropy import MaxEntropySpec
from repro.models.poisson_regression import PoissonRegressionSpec
from repro.models.ppca import PPCASpec

BLOCK_ROWS = 256
K = 64


class StreamedLinearRegression(LinearRegressionSpec):
    """The stock diff, redefined, so every search round streams the holdout."""

    def pairwise_diff_accumulator(self, Thetas_a, Thetas_b, dataset):
        return super().pairwise_diff_accumulator(Thetas_a, Thetas_b, dataset)


class ClippedLinearRegression(LinearRegressionSpec):
    """Predictions that are not linear in θ: the gap rule no longer holds."""

    def predict_many(self, Thetas, X):
        return np.clip(super().predict_many(Thetas, X), -1.0, 1.0)


@pytest.fixture(scope="module")
def splits():
    return train_holdout_test_split(
        gas_like(n_rows=12_000, n_features=12, seed=71),
        SplitSpec(holdout_fraction=0.2, test_fraction=0.1),
        rng=np.random.default_rng(72),
    )


@pytest.fixture(scope="module")
def search_setup(splits):
    spec = LinearRegressionSpec(regularization=1e-3)
    n0 = 400
    sample = splits.train.take(np.arange(n0))
    model = spec.fit(sample)
    statistics = compute_statistics(spec, model.theta, sample)
    estimator = SampleSizeEstimator(spec, splits.holdout, n_parameter_samples=K)
    return spec, estimator, model.theta, statistics, n0, splits.train.n_rows


def test_only_stock_lin_scales_with_the_gap():
    assert LinearRegressionSpec()._diff_scales_with_gap
    assert not StreamedLinearRegression()._diff_scales_with_gap
    assert not ClippedLinearRegression()._diff_scales_with_gap
    for spec in (
        LogisticRegressionSpec(),
        PoissonRegressionSpec(),
        MaxEntropySpec(n_classes=3),
        PPCASpec(),
    ):
        assert not spec._diff_scales_with_gap


def train(spec, splits, holdout, seed, streaming):
    trainer = BlinkML(
        spec,
        initial_sample_size=300,
        n_parameter_samples=K,
        seed=seed,
        streaming=streaming,
    )
    result = trainer.train(
        splits.train, holdout, ApproximationContract(epsilon=0.02, delta=0.05)
    )
    return (
        result.sample_size,
        result.model.theta.tobytes(),
        result.estimated_epsilon,
        result.metadata["size_search_probes"],
    )


@pytest.mark.parametrize("holdout_kind", ["memory", "sharded"])
def test_rescaled_search_trains_the_same_answer(splits, tmp_path, holdout_kind):
    if holdout_kind == "memory":
        holdout = splits.holdout
        streaming = StreamingConfig(block_rows=BLOCK_ROWS, n_workers=0)
    else:
        store = ShardStore.write(splits.holdout, tmp_path / "holdout", shard_rows=500)
        holdout = store.dataset()
        streaming = StreamingConfig(block_rows=BLOCK_ROWS, n_workers=2)
    assert holdout.n_rows >= 3 * BLOCK_ROWS
    for seed in range(1, 11):
        stock = train(LinearRegressionSpec(regularization=1e-3), splits, holdout, seed, streaming)
        streamed = train(
            StreamedLinearRegression(regularization=1e-3), splits, holdout, seed, streaming
        )
        # The contract needs a size search, so the search's diffs decide n.
        assert 300 < stock[0] < splits.train.n_rows
        assert stock == streamed


def test_rescaled_search_keeps_the_draw_order_after_a_refresh(tmp_path):
    # After a train-growing refresh the data sampler draws its permutation
    # lazily, after the search's base draws, from the session's generator.
    # Skipping the unused stage-one draw would move the stage-two draws and
    # that permutation, and θ_n with them.
    data = gas_like(n_rows=6_000, n_features=8, seed=81)
    holdout = gas_like(n_rows=1_200, n_features=8, seed=82)
    thetas = []
    for spec_type in (LinearRegressionSpec, StreamedLinearRegression):
        directory = tmp_path / spec_type.__name__
        ShardStore.write(data.head(4_000), directory, shard_rows=500)
        session = EstimationSession(
            spec_type(regularization=1e-3),
            ShardStore.open(directory).dataset(),
            holdout,
            statistics_scope="train",
            initial_sample_size=300,
            n_parameter_samples=K,
            rng=3,
            warm_cache=False,
        )
        ShardStore.open(directory).append_shards(
            [(data.X[4_000:], data.y[4_000:])], shard_rows=500
        )
        assert session.refresh().statistics_recomputed
        result = session.train_to(ApproximationContract(epsilon=0.02, delta=0.05))
        assert 300 < result.sample_size < session.full_size
        thetas.append(result.model.theta.tobytes())
    assert thetas[0] == thetas[1]


def test_rescaled_diffs_match_the_streamed_pairs(search_setup):
    _, estimator, theta0, statistics, n0, N = search_setup
    candidates = sorted(
        {int(n) for n in np.linspace(n0, N, 40)} | {N // 2, N // 2 + 1, N - 1}
    )
    for seed in (1, 2, 3):
        sampler = ParameterSampler(statistics, rng=np.random.default_rng(seed))
        unit = estimator.unit_gap_differences(sampler)
        streamed = estimator.candidate_differences_batch(theta0, n0, candidates, N, sampler)
        for n, reference in zip(candidates, streamed):
            rescaled = np.sqrt(sampler.alpha(n, N)) * unit
            if n == N:
                np.testing.assert_array_equal(rescaled, 0.0)
                np.testing.assert_array_equal(reference, 0.0)
                continue
            # Near N the streamed θ_n − θ_N cancels, so it is the less
            # accurate side there.
            tolerance = 1e-13 if n <= N // 2 else 1e-11
            np.testing.assert_allclose(rescaled, reference, rtol=tolerance, atol=0.0)


def unit_gaps_by_algebra(sampler, holdout):
    """``c_j = ‖X_h B_j‖ / (√m · s)`` for the stage-two base draws B."""
    draws = sampler.base_samples(K, tag="stage-two")
    gaps = draws @ holdout.X.T
    return np.sqrt(np.mean(gaps * gaps, axis=1)) / np.std(holdout.y)


@pytest.mark.parametrize("delta", [0.05, 0.2])
def test_search_lands_on_the_closed_form(search_setup, splits, delta):
    _, estimator, theta0, statistics, n0, N = search_setup
    capped = conservative_quantile_level(delta, K) == 1.0
    assert capped == (delta == 0.05)
    for seed in range(1, 11):
        sampler = ParameterSampler(statistics, rng=np.random.default_rng(seed))
        unit = unit_gaps_by_algebra(sampler, splits.holdout)
        order_statistic = conservative_upper_bound(unit, delta)
        for epsilon in (0.15, 0.3):
            closed_form = max(
                n0 + 1, math.ceil(1.0 / ((epsilon / order_statistic) ** 2 + 1.0 / N))
            )
            assert n0 + 1 < closed_form < N
            estimate = estimator.estimate(
                theta0,
                n0,
                N,
                ApproximationContract(epsilon=epsilon, delta=delta),
                statistics,
                sampler=sampler,
                skip_lower_probe=True,
                probe_batch=3,
            )
            assert estimate.feasible
            assert estimate.sample_size == closed_form


CONTRACTS = [
    ApproximationContract(epsilon=0.15, delta=0.05),
    ApproximationContract(epsilon=0.15, delta=0.2),
    ApproximationContract(epsilon=0.3, delta=0.05),
]


@pytest.mark.parametrize("count", [1, 3])
def test_lin_search_streams_the_holdout_once(search_setup, count):
    _, estimator, theta0, statistics, n0, N = search_setup
    sampler = ParameterSampler(statistics, rng=np.random.default_rng(5))
    before = streaming_pass_count()
    search = estimator.estimate_many(
        theta0, n0, N, CONTRACTS[:count], statistics,
        sampler=sampler, skip_lower_probe=True, probe_batch=3,
    )
    assert streaming_pass_count() - before == 1
    # Rounds are still counted, one per bracket step.
    assert search.fused_passes > 1


def test_streamed_searches_keep_one_pass_per_round(search_setup, splits):
    _, _, theta0, statistics, n0, N = search_setup
    sampler = ParameterSampler(statistics, rng=np.random.default_rng(5))
    streamed = SampleSizeEstimator(
        StreamedLinearRegression(regularization=1e-3),
        splits.holdout,
        n_parameter_samples=K,
    )
    before = streaming_pass_count()
    search = streamed.estimate_many(
        theta0, n0, N, CONTRACTS, statistics,
        sampler=sampler, skip_lower_probe=True, probe_batch=3,
    )
    assert streaming_pass_count() - before == search.fused_passes
    assert search.fused_passes > 1


def test_lr_search_keeps_one_pass_per_round():
    lr_splits = train_holdout_test_split(
        higgs_like(n_rows=8_000, n_features=8, seed=91),
        SplitSpec(holdout_fraction=0.2, test_fraction=0.1),
        rng=np.random.default_rng(92),
    )
    spec = LogisticRegressionSpec(regularization=1e-3)
    n0 = 400
    sample = lr_splits.train.take(np.arange(n0))
    model = spec.fit(sample)
    statistics = compute_statistics(spec, model.theta, sample)
    estimator = SampleSizeEstimator(spec, lr_splits.holdout, n_parameter_samples=K)
    before = streaming_pass_count()
    search = estimator.estimate_many(
        model.theta,
        n0,
        lr_splits.train.n_rows,
        [ApproximationContract(epsilon=0.02, delta=0.05)],
        statistics,
        sampler=ParameterSampler(statistics, rng=np.random.default_rng(5)),
        skip_lower_probe=True,
        probe_batch=3,
    )
    assert streaming_pass_count() - before == search.fused_passes
    assert search.fused_passes > 1
