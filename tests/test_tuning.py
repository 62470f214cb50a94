"""Tests for the hyperparameter-optimisation harness (Section 5.7)."""

import numpy as np
import pytest

from repro.core.contract import ApproximationContract
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import higgs_like
from repro.exceptions import ModelSpecError
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.tuning import RandomSearch, SearchSpace


@pytest.fixture(scope="module")
def tuning_splits():
    data = higgs_like(n_rows=8_000, n_features=16, seed=70)
    return train_holdout_test_split(data, SplitSpec(0.15, 0.15), rng=np.random.default_rng(0))


class TestSearchSpace:
    def test_candidate_count_and_reproducibility(self):
        a = SearchSpace(n_features=20, seed=1).sample(10)
        b = SearchSpace(n_features=20, seed=1).sample(10)
        assert len(a) == 10
        assert [c.feature_indices for c in a] == [c.feature_indices for c in b]
        assert [c.regularization for c in a] == [c.regularization for c in b]

    def test_feature_subsets_respect_bounds(self):
        space = SearchSpace(n_features=30, min_features=5, max_features=10, seed=2)
        for candidate in space.sample(20):
            assert 5 <= len(candidate.feature_indices) <= 10
            assert max(candidate.feature_indices) < 30
            assert len(set(candidate.feature_indices)) == len(candidate.feature_indices)

    def test_regularization_range(self):
        space = SearchSpace(n_features=5, log_reg_range=(-2, -1), seed=3)
        for candidate in space.sample(20):
            assert 10**-2 <= candidate.regularization <= 10**-1

    def test_invalid_configuration(self):
        with pytest.raises(ModelSpecError):
            SearchSpace(n_features=0)
        with pytest.raises(ModelSpecError):
            SearchSpace(n_features=10, min_features=8, max_features=4)
        with pytest.raises(ModelSpecError):
            SearchSpace(n_features=10, log_reg_range=(1, -1))
        with pytest.raises(ModelSpecError):
            SearchSpace(n_features=10).sample(0)

    def test_candidate_indices_are_sequential(self):
        candidates = SearchSpace(n_features=8, seed=4).sample(5)
        assert [c.index for c in candidates] == list(range(5))


class TestRandomSearch:
    def make_search(self, splits):
        return RandomSearch(
            spec_factory=lambda reg: LogisticRegressionSpec(regularization=reg),
            train=splits.train,
            holdout=splits.holdout,
            test=splits.test,
            contract=ApproximationContract(epsilon=0.05, delta=0.05),
            initial_sample_size=500,
            n_parameter_samples=32,
            seed=0,
        )

    def test_full_and_blinkml_evaluate_same_candidates(self, tuning_splits):
        search = self.make_search(tuning_splits)
        candidates = SearchSpace(n_features=16, min_features=6, seed=5).sample(3)
        full = search.run(candidates, strategy="full")
        approx = search.run(candidates, strategy="blinkml")
        assert full.n_trials == approx.n_trials == 3
        assert [t.candidate.index for t in full.trials] == [t.candidate.index for t in approx.trials]

    def test_blinkml_uses_fewer_rows(self, tuning_splits):
        search = self.make_search(tuning_splits)
        candidates = SearchSpace(n_features=16, min_features=6, seed=6).sample(3)
        full = search.run(candidates, strategy="full")
        approx = search.run(candidates, strategy="blinkml")
        assert sum(t.sample_size for t in approx.trials) < sum(t.sample_size for t in full.trials)

    def test_accuracies_are_comparable(self, tuning_splits):
        search = self.make_search(tuning_splits)
        candidates = SearchSpace(n_features=16, min_features=8, seed=7).sample(3)
        full = search.run(candidates, strategy="full")
        approx = search.run(candidates, strategy="blinkml")
        for full_trial, approx_trial in zip(full.trials, approx.trials):
            assert abs(full_trial.test_accuracy - approx_trial.test_accuracy) < 0.08

    def test_time_budget_stops_early(self, tuning_splits):
        search = self.make_search(tuning_splits)
        candidates = SearchSpace(n_features=16, seed=8).sample(50)
        result = search.run(candidates, strategy="blinkml", time_budget_seconds=0.5)
        assert result.n_trials < 50

    def test_best_trial_has_the_highest_accuracy(self, tuning_splits):
        search = self.make_search(tuning_splits)
        candidates = SearchSpace(n_features=16, min_features=4, seed=9).sample(4)
        result = search.run(candidates, strategy="blinkml")
        best = result.best_trial
        assert best is not None
        assert best.test_accuracy == max(t.test_accuracy for t in result.trials)

    def test_invalid_strategy(self, tuning_splits):
        search = self.make_search(tuning_splits)
        candidates = SearchSpace(n_features=16, seed=10).sample(1)
        with pytest.raises(ModelSpecError):
            search.run(candidates, strategy="grid")

    def test_empty_result_has_no_best_trial(self, tuning_splits):
        search = self.make_search(tuning_splits)
        result = search.run([], strategy="full")
        assert result.best_trial is None
