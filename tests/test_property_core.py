"""Hypothesis property tests on the BlinkML core machinery.

Invariants checked:

* the α scale of Theorem 1 is non-negative, decreasing in n and zero at
  n = N;
* sampling-by-scaling is exact: draws for any (n, N) are deterministic
  rescalings of the cached base draws;
* the conservative quantile (Lemma 2) always dominates the plain empirical
  quantile at level 1 − δ;
* the Lemma 1 bound is monotone in both arguments.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guarantees import (
    conservative_upper_bound,
    generalization_error_bound,
)
from repro.core.parameter_sampler import ParameterSampler
from repro.core.statistics import ModelStatistics, StatisticsMethod
from repro.linalg.covariance import FactoredCovariance
from repro.linalg.moments import GradientMomentSummary


def make_statistics(seed: int, d: int = 4, n: int = 200) -> ModelStatistics:
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(n, d))
    covariance = FactoredCovariance.from_gradient_summary(
        GradientMomentSummary.from_gradients(Q), regularization=0.05
    )
    return ModelStatistics(
        covariance=covariance,
        method=StatisticsMethod.OBSERVED_FISHER,
        sample_size=n,
    )


class TestAlphaProperties:
    @given(
        n=st.integers(1, 10_000),
        extra=st.integers(0, 1_000_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_alpha_nonnegative_and_zero_at_full_size(self, n, extra):
        N = n + extra
        alpha = ParameterSampler.alpha(n, N)
        assert alpha >= 0.0
        assert ParameterSampler.alpha(N, N) == 0.0

    @given(
        n1=st.integers(1, 5_000),
        n2=st.integers(1, 5_000),
        N=st.integers(5_001, 100_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_alpha_decreasing_in_n(self, n1, n2, N):
        small, large = sorted((n1, n2))
        assert ParameterSampler.alpha(large, N) <= ParameterSampler.alpha(small, N)


class TestSamplingByScaling:
    @given(
        seed=st.integers(0, 1000),
        n_a=st.integers(100, 5_000),
        n_b=st.integers(100, 5_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_scaled_draws_share_base_samples(self, seed, n_a, n_b):
        stats = make_statistics(seed)
        sampler = ParameterSampler(stats, rng=np.random.default_rng(seed))
        N = 100_000
        center = np.zeros(stats.dimension)
        draws_a = sampler.sample_around(center, n=n_a, N=N, count=16)
        draws_b = sampler.sample_around(center, n=n_b, N=N, count=16)
        alpha_a = ParameterSampler.alpha(n_a, N)
        alpha_b = ParameterSampler.alpha(n_b, N)
        rescaled = draws_a * np.sqrt(alpha_b / alpha_a)
        np.testing.assert_allclose(draws_b, rescaled, atol=1e-10)

    @given(seed=st.integers(0, 1000), count=st.integers(2, 64))
    @settings(max_examples=30, deadline=None)
    def test_base_draws_live_in_factor_range(self, seed, count):
        stats = make_statistics(seed, d=6, n=50)
        sampler = ParameterSampler(stats, rng=np.random.default_rng(seed))
        base = sampler.base_samples(count)
        # Every draw must lie in the column space of the transform L.
        transform = stats.covariance.transform
        projector = transform @ np.linalg.pinv(transform)
        np.testing.assert_allclose(base @ projector.T, base, atol=1e-8)


class TestGuaranteeProperties:
    @given(
        values=st.lists(st.floats(0, 1), min_size=5, max_size=300),
        delta=st.floats(0.01, 0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_conservative_bound_dominates_plain_quantile(self, values, delta):
        # conservative_upper_bound takes the smallest order statistic whose
        # *empirical CDF* reaches the (inflated) Lemma-2 level, i.e. the
        # inverted-CDF quantile convention.  Compare against the same
        # convention: np.quantile's "higher" method uses (n−1)-based
        # positions and can exceed the inverted-CDF quantile by one order
        # statistic, which is not a failure of conservativeness (found by
        # hypothesis at values=[0,0,0,1,1], delta≈0.498).
        array = np.array(values)
        conservative = conservative_upper_bound(array, delta)
        plain = float(np.quantile(array, 1.0 - delta, method="inverted_cdf"))
        assert conservative >= plain - 1e-12

    @given(
        eg1=st.floats(0, 1),
        eg2=st.floats(0, 1),
        eps=st.floats(0, 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_generalization_bound_monotone(self, eg1, eg2, eps):
        low, high = sorted((eg1, eg2))
        assert generalization_error_bound(low, eps) <= generalization_error_bound(high, eps) + 1e-12

    @given(eg=st.floats(0, 1), eps1=st.floats(0, 1), eps2=st.floats(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_generalization_bound_monotone_in_epsilon(self, eg, eps1, eps2):
        low, high = sorted((eps1, eps2))
        assert generalization_error_bound(eg, low) <= generalization_error_bound(eg, high) + 1e-12
