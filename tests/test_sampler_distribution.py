"""The parameter sampler's covariance, checked against an exact distribution.

For Lin, a base draw b ~ N(0, Σ) with Σ = H⁻¹JH⁻¹ has the diff
``c = diff(b, 0) = ‖X_h b‖ / (√m · s)``, so ``c² = bᵀGb / s²`` with
``G = X_hᵀX_h / m``.  Writing ``b = Σ^½ z`` with z standard normal makes c²
a generalised χ² whose weights are ``eig(Σ^½ G Σ^½) / s²``.  Its exact CDF
comes from Imhof's inversion formula; the empirical CDF of 10⁴ production
draws must match it under a Kolmogorov–Smirnov test at α = 0.001, and the
same draws with a covariance 5 % too large must not.

G, Σ and s are computed here from the holdout and the statistics, not from
the production holdout factor, so the test checks the sampler's covariance
and Lin's factor diffs on their own, apart from the asymptotic-normal
approximation the coverage gate checks them with.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate

from repro.core.parameter_sampler import ParameterSampler
from repro.core.statistics import compute_statistics
from repro.data.synthetic import gas_like
from repro.evaluation.streaming import streaming_fanout_pairwise_prediction_differences
from repro.models.linear_regression import LinearRegressionSpec

DRAWS = 10_000
QUANTILES = 199
#: Kolmogorov–Smirnov critical value at α = 0.001 for DRAWS samples.
CRITICAL = 1.95 / np.sqrt(DRAWS)


def imhof_cdf(x: float, weights: np.ndarray) -> float:
    """``P(Σ_j λ_j z_j² ≤ x)`` for standard normal z_j (Imhof, 1961)."""

    def integrand(u: float) -> float:
        if u == 0.0:
            return 0.5 * (float(np.sum(weights)) - x)
        theta = 0.5 * np.sum(np.arctan(weights * u)) - 0.5 * x * u
        rho = np.prod((1.0 + (weights * u) ** 2) ** 0.25)
        return float(np.sin(theta) / (u * rho))

    tail, _ = integrate.quad(integrand, 0.0, np.inf, limit=500)
    return 0.5 - tail / np.pi


def ks_distance(samples: np.ndarray, weights: np.ndarray) -> float:
    """Largest CDF gap at the samples' 1/200 … 199/200 quantiles."""
    samples = np.sort(samples)
    points = np.quantile(samples, np.arange(1, QUANTILES + 1) / (QUANTILES + 1))
    empirical = np.searchsorted(samples, points, side="right") / samples.size
    exact = np.array([imhof_cdf(point, weights) for point in points])
    return float(np.max(np.abs(empirical - exact)))


@pytest.fixture(scope="module")
def lin_draws():
    spec = LinearRegressionSpec(regularization=1e-3)
    data = gas_like(n_rows=12_000, n_features=12, seed=41)
    train, holdout = data.head(2_000), data.take(np.arange(2_000, data.n_rows))
    statistics = compute_statistics(spec, spec.fit(train).theta, train)
    sampler = ParameterSampler(statistics, rng=np.random.default_rng(42))
    draws = sampler.base_samples(DRAWS)
    diffs = streaming_fanout_pairwise_prediction_differences(
        spec, [(draws, np.zeros_like(draws))], holdout
    )[0]

    covariance = statistics.covariance.dense()
    values, vectors = np.linalg.eigh(covariance)
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.T
    gram = holdout.X.T @ holdout.X / holdout.n_rows
    weights = np.linalg.eigvalsh(root @ gram @ root) / np.var(holdout.y)
    # The weights' scale cancels in the CDF; unit total keeps quad well posed.
    total = np.sum(weights)
    return diffs**2 / total, weights / total


def test_lin_diffs_follow_the_generalised_chi_square(lin_draws):
    squared, weights = lin_draws
    assert ks_distance(squared, weights) < CRITICAL


def test_a_five_percent_larger_covariance_is_rejected(lin_draws):
    squared, weights = lin_draws
    assert ks_distance(1.05 * squared, weights) > CRITICAL
