"""Tier-1 coverage gate for the paper's guarantee.

The guarantee (Lemma 2 with Theorem 2's search): the model BlinkML
returns disagrees with the full model by at most ε with probability at
least 1 − δ.  On small synthetic problems where the full model is cheap,
each case trains 40 seeded approximate models under one contract and
counts the runs whose actual difference from the full model exceeds ε.
The count must be consistent with a violation rate of at most δ: the
upper binomial tail P(X ≥ violations | 40, δ) must be at least 0.001,
i.e. the one-sided 99.9 % Clopper–Pearson lower bound on the violation
rate must not exceed δ.

At δ = 0.05 Lemma 2's level caps at 1, so ε is checked against the max
of the k sampled diffs; δ = 0.2 covers a level below 1 (0.856 at
k = 128).  Each contract asks for half of the initial model's own bound
ε₀, so every search has to grow the sample beyond n₀; the median
returned n proves it did.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.contract import ApproximationContract
from repro.core.coordinator import BlinkML
from repro.core.session import EstimationSession
from repro.core.statistics import StatisticsMethod
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import bikeshare_like, gas_like, higgs_like, mnist_like
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.models.max_entropy import MaxEntropySpec
from repro.models.poisson_regression import PoissonRegressionSpec
from repro.models.ppca import PPCASpec

ROWS = 6_000
INITIAL_SAMPLE_SIZE = 300
PARAMETER_SAMPLES = 128
SEEDS = range(1, 41)
MIN_UPPER_TAIL = 0.001

OBSERVED_FISHER = StatisticsMethod.OBSERVED_FISHER
CLOSED_FORM = StatisticsMethod.CLOSED_FORM
INVERSE_GRADIENTS = StatisticsMethod.INVERSE_GRADIENTS


def split(data):
    """80 / 20 / 5 % of 6,000 rows: N = 4,500 training rows."""
    return train_holdout_test_split(
        data,
        SplitSpec(holdout_fraction=0.2, test_fraction=0.05),
        rng=np.random.default_rng(5),
    )


def logistic_regression():
    splits = split(higgs_like(n_rows=ROWS, n_features=10, seed=77))
    return LogisticRegressionSpec(regularization=1e-3), splits


def linear_regression():
    splits = split(gas_like(n_rows=ROWS, n_features=10, seed=78))
    return LinearRegressionSpec(regularization=1e-3), splits


def poisson_regression():
    splits = split(bikeshare_like(n_rows=ROWS, n_features=10, seed=80))
    return PoissonRegressionSpec(regularization=1e-3), splits


def max_entropy():
    splits = split(
        mnist_like(n_rows=ROWS, n_features=8, n_classes=3, template_rank=4, seed=79)
    )
    return MaxEntropySpec(regularization=1e-3), splits


def ppca():
    splits = split(
        mnist_like(n_rows=ROWS, n_features=12, n_classes=4, template_rank=4, seed=81)
    )
    return PPCASpec.with_estimated_noise(splits.train, n_factors=3), splits


FAMILIES = {
    "lr": logistic_regression,
    "lin": linear_regression,
    "poisson": poisson_regression,
    "ppca": ppca,
    "me": max_entropy,
}

CASES = [
    ("lr", OBSERVED_FISHER, 0.05),
    ("lr", OBSERVED_FISHER, 0.2),
    ("lr", CLOSED_FORM, 0.2),
    ("lr", INVERSE_GRADIENTS, 0.2),
    ("lin", OBSERVED_FISHER, 0.05),
    ("lin", OBSERVED_FISHER, 0.2),
    ("lin", CLOSED_FORM, 0.2),
    ("lin", INVERSE_GRADIENTS, 0.2),
    ("poisson", OBSERVED_FISHER, 0.2),
    ("ppca", OBSERVED_FISHER, 0.2),
    ("me", OBSERVED_FISHER, 0.2),
]


@pytest.fixture(scope="module")
def problems():
    """family -> (spec, splits, θ_full), each built once per module."""
    built = {}

    def problem(family):
        if family not in built:
            spec, splits = FAMILIES[family]()
            built[family] = (spec, splits, spec.fit(splits.train).theta)
        return built[family]

    return problem


def upper_tail(violations, trials, delta):
    """P(X ≥ violations) for X ~ Binomial(trials, delta)."""
    return sum(
        math.comb(trials, count) * delta**count * (1.0 - delta) ** (trials - count)
        for count in range(violations, trials + 1)
    )


def test_upper_tail_matches_hand_values():
    assert upper_tail(0, 40, 0.2) == pytest.approx(1.0)
    assert upper_tail(40, 40, 0.5) == pytest.approx(0.5**40)
    assert upper_tail(1, 40, 0.05) == pytest.approx(1.0 - 0.95**40)


@pytest.mark.parametrize(
    "family,method,delta",
    CASES,
    ids=[f"{family}-{method.value}-{delta}" for family, method, delta in CASES],
)
def test_violation_rate_is_consistent_with_delta(problems, family, method, delta):
    spec, splits, theta_full = problems(family)
    initial = EstimationSession(
        spec,
        splits.train,
        splits.holdout,
        initial_sample_size=INITIAL_SAMPLE_SIZE,
        n_parameter_samples=PARAMETER_SAMPLES,
        statistics_method=method,
        rng=0,
    ).answer(ApproximationContract(epsilon=0.5, delta=delta))
    contract = ApproximationContract(
        epsilon=initial.estimate.epsilon / 2, delta=delta
    )

    violations = 0
    sizes = []
    for seed in SEEDS:
        result = BlinkML(
            spec,
            initial_sample_size=INITIAL_SAMPLE_SIZE,
            n_parameter_samples=PARAMETER_SAMPLES,
            statistics_method=method,
            seed=seed,
        ).train(splits.train, splits.holdout, contract)
        sizes.append(result.sample_size)
        difference = spec.prediction_difference(
            result.model.theta, theta_full, splits.holdout
        )
        violations += int(difference > contract.epsilon)

    assert np.median(sizes) > INITIAL_SAMPLE_SIZE, sizes
    tail = upper_tail(violations, len(SEEDS), delta)
    assert tail >= MIN_UPPER_TAIL, (
        f"{violations} of {len(SEEDS)} runs exceeded ε = {contract.epsilon:.4g} "
        f"at δ = {delta}: P(X ≥ {violations}) = {tail:.2e}"
    )
