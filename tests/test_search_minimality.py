"""Tier-1 gate: the size search returns the minimal n under Lemma 2's check.

Section 4.2's search brackets the smallest n whose Monte-Carlo check
``Pr[v(m_n, m_N) ≤ ε] ≥ 1 − δ`` holds (Equation (8) with Lemma 2).  After
``session.train_to(contract)`` returns n, re-evaluating n − 1 and n through
``SampleSizeEstimator.candidate_differences_batch`` with the session's own
parameter sampler reads the same cached base draws the search read, so the
check must fail at n − 1 and hold at n.  Lin is covered by its closed form
(tests/test_differential_gap_scaling.py); this covers LR, ME, Poisson and
PPCA.

The contract asks for half of the initial model's own bound ε₀ at
δ = 0.05, which puts n strictly between n₀ + 1 and N on every case here.
At n = n₀ + 1 the search never probes n₀ (the accuracy estimator already
rejected it, from another draw stream), so such a case could not show
minimality; the test asserts the interior instead of assuming it.

``probe_batch`` only changes which sizes the search probes, so 1 (the
paper's bisection) and 3 (the default stacked rounds) must return the
same n.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.contract import ApproximationContract
from repro.core.guarantees import satisfies_probability_threshold
from repro.core.sample_size import SampleSizeEstimator
from repro.core.session import EstimationSession
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import bikeshare_like, higgs_like, mnist_like
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.models.max_entropy import MaxEntropySpec
from repro.models.poisson_regression import PoissonRegressionSpec
from repro.models.ppca import PPCASpec

ROWS = 12_000
INITIAL_SAMPLE_SIZE = 300
PARAMETER_SAMPLES = 128
DELTA = 0.05
SEEDS = range(1, 6)


def split(data):
    """75 % of 12,000 rows train (N = 9,000) and 20 % are the holdout."""
    return train_holdout_test_split(
        data,
        SplitSpec(holdout_fraction=0.2, test_fraction=0.05),
        rng=np.random.default_rng(5),
    )


def logistic_regression():
    splits = split(higgs_like(n_rows=ROWS, n_features=10, seed=77))
    return LogisticRegressionSpec(regularization=1e-3), splits


def max_entropy():
    splits = split(
        mnist_like(n_rows=ROWS, n_features=8, n_classes=3, template_rank=4, seed=79)
    )
    return MaxEntropySpec(regularization=1e-3), splits


def poisson_regression():
    splits = split(bikeshare_like(n_rows=ROWS, n_features=10, seed=80))
    return PoissonRegressionSpec(regularization=1e-3), splits


def ppca():
    splits = split(
        mnist_like(n_rows=ROWS, n_features=12, n_classes=4, template_rank=4, seed=81)
    )
    return PPCASpec.with_estimated_noise(splits.train, n_factors=3), splits


FAMILIES = {
    "lr": logistic_regression,
    "me": max_entropy,
    "poisson": poisson_regression,
    "ppca": ppca,
}


def open_session(spec, splits, seed, probe_batch=3):
    return EstimationSession(
        spec,
        splits.train,
        splits.holdout,
        initial_sample_size=INITIAL_SAMPLE_SIZE,
        n_parameter_samples=PARAMETER_SAMPLES,
        probe_batch=probe_batch,
        rng=seed,
    )


@pytest.fixture(scope="module")
def problems():
    """family -> (spec, splits, contract), each built once per module."""
    built = {}

    def problem(family):
        if family not in built:
            spec, splits = FAMILIES[family]()
            epsilon0 = (
                open_session(spec, splits, seed=0)
                .answer(ApproximationContract(epsilon=0.5, delta=DELTA))
                .estimate.epsilon
            )
            contract = ApproximationContract(epsilon=epsilon0 / 2, delta=DELTA)
            built[family] = (spec, splits, contract)
        return built[family]

    return problem


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_search_returns_the_minimal_n(problems, family, seed):
    spec, splits, contract = problems(family)
    sizes = {}
    for probe_batch in (1, 3):
        session = open_session(spec, splits, seed, probe_batch=probe_batch)
        n = session.train_to(contract).sample_size
        sizes[probe_batch] = n
        assert INITIAL_SAMPLE_SIZE + 1 < n < session.full_size, n

        below, at = SampleSizeEstimator(
            spec, splits.holdout, n_parameter_samples=PARAMETER_SAMPLES
        ).candidate_differences_batch(
            session.initial_model.theta,
            session.initial_sample_size,
            [n - 1, n],
            session.full_size,
            session.parameter_sampler,
        )
        assert not satisfies_probability_threshold(below, contract.epsilon, DELTA)
        assert satisfies_probability_threshold(at, contract.epsilon, DELTA)
    assert sizes[1] == sizes[3]
