"""Differential: Lin's diffs from the holdout factor change no answer.

Lin's pairwise diff is the RMS of ``X_h(θ_a − θ_b)`` over the holdout,
which is ``‖R(θ_a − θ_b)‖ / s`` for the holdout factor R
(``RᵀR = X_hᵀX_h / m``).  Stock Lin's accumulators compute it from R, so a
search streams no holdout pass once R exists.  A subclass forced onto the
streamed accumulators takes one pass per round, and must train to the same
sample size, θ bytes and probe schedule, with ε estimates equal to 1e-12.

Stage two draws ``θ_N − θ_n = √(1/n − 1/N) · B`` from the cached base
draws B, so the search has a closed form (ROADMAP item 3): the smallest n
whose Lemma 2 order statistic ``√(1/n − 1/N) · c_(q)`` of
``c = diff(B, 0)`` is at most ε.
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
from repro.evaluation.streaming import (
    StreamingConfig,
    holdout_factor,
    streaming_pass_count,
)
from repro.models.base import BlockSumDiffAccumulator, PrecomputedDiffAccumulator
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec

BLOCK_ROWS = 256
K = 64


class StreamedLinearRegression(LinearRegressionSpec):
    """Lin's diffs on the streamed accumulators: every evaluation streams."""

    def diff_accumulator(self, theta_ref, Thetas, dataset):
        return self._rms_accumulator(theta_ref, Thetas, self._difference_scale(dataset))

    def pairwise_diff_accumulator(self, Thetas_a, Thetas_b, dataset):
        return self._pairwise_rms_accumulator(
            Thetas_a, Thetas_b, self._difference_scale(dataset)
        )


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


def test_only_stock_lin_takes_the_holdout_factor(splits):
    thetas = np.zeros((2, splits.holdout.n_features))

    def accumulators(spec):
        return (
            spec.diff_accumulator(thetas[0], thetas, splits.holdout),
            spec.pairwise_diff_accumulator(thetas, thetas, splits.holdout),
        )

    for accumulator in accumulators(LinearRegressionSpec()):
        assert isinstance(accumulator, PrecomputedDiffAccumulator)
    for streamed in (StreamedLinearRegression(), ClippedLinearRegression()):
        for accumulator in accumulators(streamed):
            assert isinstance(accumulator, BlockSumDiffAccumulator)


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
        result.metadata["size_search_probes"],
    ), result.estimated_epsilon


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
        stock, stock_epsilon = train(
            LinearRegressionSpec(regularization=1e-3), splits, holdout, seed, streaming
        )
        streamed, streamed_epsilon = train(
            StreamedLinearRegression(regularization=1e-3), splits, holdout, seed, streaming
        )
        # The contract needs a size search, so the search's diffs decide n.
        assert 300 < stock[0] < splits.train.n_rows
        assert stock == streamed
        assert stock_epsilon == pytest.approx(streamed_epsilon, rel=1e-12, abs=0.0)


def test_rescaled_search_keeps_the_draw_order_after_a_refresh(tmp_path):
    # After a train-growing refresh the data sampler draws its permutation
    # lazily, after the search's base draws, from the session's generator.
    # A search that drew its stage-one and stage-two blocks in another order
    # than the streamed one would move that permutation, and θ_n with it.
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


def test_factor_diffs_match_the_streamed_pairs(search_setup, splits):
    _, estimator, theta0, statistics, n0, N = search_setup
    streamed = SampleSizeEstimator(
        StreamedLinearRegression(regularization=1e-3),
        splits.holdout,
        n_parameter_samples=K,
    )
    candidates = sorted(
        {int(n) for n in np.linspace(n0, N, 40)} | {N // 2, N // 2 + 1, N - 1}
    )
    for seed in (1, 2, 3):
        pairs = []
        for side in (estimator, streamed):
            sampler = ParameterSampler(statistics, rng=np.random.default_rng(seed))
            pairs.append(side.candidate_differences_batch(theta0, n0, candidates, N, sampler))
        for n, factor, reference in zip(candidates, *pairs):
            if n == N:
                np.testing.assert_array_equal(factor, 0.0)
                np.testing.assert_array_equal(reference, 0.0)
                continue
            np.testing.assert_allclose(factor, reference, rtol=1e-12, atol=0.0)


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
def test_lin_search_streams_the_holdout_once(search_setup, splits, count):
    # The one pass is the holdout factor's; once it exists, no search streams.
    _, estimator, theta0, statistics, n0, N = search_setup
    holdout_factor(splits.holdout)
    sampler = ParameterSampler(statistics, rng=np.random.default_rng(5))
    before = streaming_pass_count()
    search = estimator.estimate_many(
        theta0, n0, N, CONTRACTS[:count], statistics,
        sampler=sampler, skip_lower_probe=True, probe_batch=3,
    )
    assert streaming_pass_count() - before == 0
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
