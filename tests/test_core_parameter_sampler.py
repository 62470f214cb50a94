"""Tests for the fast parameter sampler (Section 4.3 optimisations)."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.parameter_sampler import ParameterSampler
from repro.core.statistics import compute_statistics
from repro.data.dataset import Dataset
from repro.exceptions import StatisticsError
from repro.models.linear_regression import LinearRegressionSpec


@pytest.fixture(scope="module")
def statistics_and_theta():
    rng = np.random.default_rng(20)
    X = rng.normal(size=(3000, 4))
    y = X @ np.array([1.0, 0.0, -1.0, 2.0]) + rng.normal(scale=0.2, size=3000)
    data = Dataset(X, y)
    spec = LinearRegressionSpec(regularization=1e-2)
    model = spec.fit(data)
    stats = compute_statistics(spec, model.theta, data, method="observed_fisher")
    return stats, model.theta


class TestAlpha:
    def test_formula(self):
        assert ParameterSampler.alpha(100, 1000) == pytest.approx(1 / 100 - 1 / 1000)

    def test_alpha_zero_when_n_equals_N(self):
        assert ParameterSampler.alpha(500, 500) == 0.0

    def test_invalid_sizes(self):
        with pytest.raises(StatisticsError):
            ParameterSampler.alpha(0, 10)
        with pytest.raises(StatisticsError):
            ParameterSampler.alpha(20, 10)


class TestBaseSamples:
    def test_caching_reuses_draws(self, statistics_and_theta):
        stats, _ = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(0))
        a = sampler.base_samples(32)
        b = sampler.base_samples(32)
        assert a is b  # same cached array

    def test_tags_are_independent(self, statistics_and_theta):
        stats, _ = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(0))
        a = sampler.base_samples(32, tag="one")
        b = sampler.base_samples(32, tag="two")
        assert not np.allclose(a, b)

    def test_smaller_request_is_prefix_of_larger(self, statistics_and_theta):
        # Two callers sharing a tag but asking for different counts must
        # share draws (Section 4.3 sampling-by-scaling reuse): a count-64
        # request returns a prefix of a prior count-128 request.
        stats, _ = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(7))
        large = sampler.base_samples(128)
        small = sampler.base_samples(64)
        np.testing.assert_array_equal(small, large[:64])

    def test_larger_request_extends_cached_prefix(self, statistics_and_theta):
        # Growing the cache must keep earlier draws as a prefix rather than
        # redrawing an independent block.
        stats, _ = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(8))
        small = sampler.base_samples(64).copy()
        large = sampler.base_samples(128)
        assert large.shape[0] == 128
        np.testing.assert_array_equal(large[:64], small)

    def test_prefix_reuse_is_per_tag(self, statistics_and_theta):
        stats, _ = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(9))
        a = sampler.base_samples(48, tag="one")
        b = sampler.base_samples(24, tag="two")
        assert not np.allclose(a[:24], b)

    def test_base_covariance_matches_factor(self, statistics_and_theta):
        stats, _ = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(1))
        samples = sampler.base_samples(50_000)
        empirical = samples.T @ samples / samples.shape[0]
        expected = stats.covariance.dense()
        np.testing.assert_allclose(
            empirical, expected, rtol=0.1, atol=0.02 * np.max(np.abs(expected))
        )

    def test_invalid_count(self, statistics_and_theta):
        stats, _ = statistics_and_theta
        sampler = ParameterSampler(stats)
        with pytest.raises(StatisticsError):
            sampler.base_samples(0)

    def test_base_samples_are_read_only(self, statistics_and_theta):
        # Regression: the cached block used to be handed out writable, so a
        # caller mutating its draws silently corrupted every later rescaled
        # sample for the tag.
        stats, _ = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(10))
        block = sampler.base_samples(32)
        assert block.flags.writeable is False
        with pytest.raises(ValueError):
            block[0, 0] = 123.0
        # Prefix views and grown blocks inherit the protection.
        assert sampler.base_samples(16).flags.writeable is False
        assert sampler.base_samples(64).flags.writeable is False

    def test_mutation_attempt_cannot_corrupt_later_draws(self, statistics_and_theta):
        stats, theta = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(11))
        before = sampler.sample_around(theta, n=100, N=10_000, count=16).copy()
        with pytest.raises(ValueError):
            sampler.base_samples(16)[:] = 0.0
        after = sampler.sample_around(theta, n=100, N=10_000, count=16)
        np.testing.assert_array_equal(before, after)

    def test_concurrent_requests_share_one_block(self, statistics_and_theta):
        # Concurrent growth requests must serialise: every returned array is
        # a prefix of the final cached block, never an independent redraw.
        stats, _ = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(12))
        counts = [16, 32, 48, 64, 96, 128] * 4

        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(sampler.base_samples, counts))

        final = sampler.base_samples(max(counts))
        for count, block in zip(counts, results):
            assert block.shape[0] == count
            np.testing.assert_array_equal(block, final[:count])


class TestScaledSampling:
    def test_sample_around_mean_and_scale(self, statistics_and_theta):
        stats, theta = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(2))
        n, N = 1000, 100_000
        samples = sampler.sample_around(theta, n=n, N=N, count=30_000)
        alpha = 1 / n - 1 / N
        np.testing.assert_allclose(samples.mean(axis=0), theta, atol=0.02)
        empirical_cov = np.cov(samples.T)
        expected = alpha * stats.covariance.dense()
        np.testing.assert_allclose(
            empirical_cov, expected, rtol=0.15, atol=0.03 * np.max(np.abs(expected))
        )

    def test_sampling_by_scaling_consistency(self, statistics_and_theta):
        # Samples for different n must be exact rescalings of the same base
        # draws (the Section 4.3 "sampling by scaling" property).
        stats, theta = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(3))
        N = 50_000
        samples_a = sampler.sample_around(theta, n=1000, N=N, count=64)
        samples_b = sampler.sample_around(theta, n=4000, N=N, count=64)
        alpha_a = 1 / 1000 - 1 / N
        alpha_b = 1 / 4000 - 1 / N
        rescaled = theta + (samples_a - theta) * np.sqrt(alpha_b / alpha_a)
        np.testing.assert_allclose(samples_b, rescaled, atol=1e-10)

    def test_sample_around_with_n_equal_N_is_degenerate(self, statistics_and_theta):
        stats, theta = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(4))
        samples = sampler.sample_around(theta, n=500, N=500, count=8)
        np.testing.assert_allclose(samples, np.tile(theta, (8, 1)))

    def test_dimension_mismatch_rejected(self, statistics_and_theta):
        stats, _ = statistics_and_theta
        sampler = ParameterSampler(stats)
        with pytest.raises(StatisticsError):
            sampler.sample_around(np.zeros(stats.dimension + 1), n=10, N=100, count=4)


class TestTwoStageSampling:
    def test_marginal_covariance_of_theta_N(self, statistics_and_theta):
        # Marginally, θ_N | θ_0 should have covariance (1/n0 − 1/N)·Cov
        # because the two stages add independent noise.
        stats, theta = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(5))
        n0, n, N = 1000, 5000, 100_000
        _, theta_N = sampler.two_stage_samples(theta, n0=n0, n=n, N=N, count=40_000)
        expected_alpha = 1 / n0 - 1 / N
        empirical_cov = np.cov(theta_N.T)
        expected = expected_alpha * stats.covariance.dense()
        np.testing.assert_allclose(
            empirical_cov, expected, rtol=0.15, atol=0.03 * np.max(np.abs(expected))
        )

    def test_stage_one_variance_shrinks_with_larger_n(self, statistics_and_theta):
        stats, theta = statistics_and_theta
        sampler = ParameterSampler(stats, rng=np.random.default_rng(6))
        theta_n_small, _ = sampler.two_stage_samples(theta, n0=1000, n=2000, N=50_000, count=2000)
        theta_n_large, _ = sampler.two_stage_samples(theta, n0=1000, n=40_000, N=50_000, count=2000)
        spread_small = np.var(theta_n_small - theta, axis=0).sum()
        spread_large = np.var(theta_n_large - theta, axis=0).sum()
        assert spread_large > spread_small  # larger n -> farther from θ_0 ...

    def test_candidate_below_n0_rejected(self, statistics_and_theta):
        stats, theta = statistics_and_theta
        sampler = ParameterSampler(stats)
        with pytest.raises(StatisticsError):
            sampler.two_stage_samples(theta, n0=1000, n=500, N=10_000, count=4)
