"""Tests for the approximation contract and the Lemma 1 / Lemma 2 helpers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.contract import ApproximationContract
from repro.core.guarantees import (
    conservative_quantile_level,
    conservative_upper_bound,
    generalization_error_bound,
    satisfies_probability_threshold,
)
from repro.exceptions import ContractError


class TestContract:
    def test_basic_properties(self):
        contract = ApproximationContract(epsilon=0.05, delta=0.1)
        assert contract.requested_accuracy == pytest.approx(0.95)
        assert contract.confidence == pytest.approx(0.9)

    def test_from_accuracy(self):
        contract = ApproximationContract.from_accuracy(0.99)
        assert contract.epsilon == pytest.approx(0.01)
        assert contract.delta == 0.05

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_epsilon(self, epsilon):
        with pytest.raises(ContractError):
            ApproximationContract(epsilon=epsilon)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2])
    def test_invalid_delta(self, delta):
        with pytest.raises(ContractError):
            ApproximationContract(epsilon=0.1, delta=delta)

    @pytest.mark.parametrize("accuracy", [0.0, 1.0])
    def test_invalid_accuracy(self, accuracy):
        with pytest.raises(ContractError):
            ApproximationContract.from_accuracy(accuracy)

    def test_describe(self):
        description = ApproximationContract(epsilon=0.2, delta=0.05).describe()
        assert description["requested_accuracy"] == pytest.approx(0.8)


class TestQuantileLevel:
    def test_capped_at_one(self):
        # δ = 0.05 with the 0.95 slack pushes the raw level above 1.
        assert conservative_quantile_level(0.05, 128) == 1.0

    def test_below_one_for_loose_delta(self):
        level = conservative_quantile_level(0.3, 10_000)
        assert 0.7 < level < 0.75

    def test_level_decreases_with_more_samples(self):
        loose = conservative_quantile_level(0.3, 16)
        tight = conservative_quantile_level(0.3, 4096)
        assert tight <= loose

    def test_invalid_inputs(self):
        with pytest.raises(ContractError):
            conservative_quantile_level(0.0, 10)
        with pytest.raises(ContractError):
            conservative_quantile_level(0.1, 0)

    def test_environment_cannot_weaken_the_level(self):
        """The 0.95 of Lemma 2 is a paper constant, not a knob.

        A fresh interpreter with a larger slack in the environment, under
        the constant's own name or a knob-style ``DEFAULT_`` name, must
        still cap the δ = 0.05, k = 128 level at 1 (ε is the max of the k
        diffs); a slack of 0.999 would lower it to about 0.953.
        """
        constant = "CONFIDENCE_SLACK"
        env = dict(os.environ, **{constant: "0.999", f"DEFAULT_{constant}": "0.999"})
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [source_root, *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        probe = (
            "from repro.core.guarantees import conservative_quantile_level\n"
            "print(repr(conservative_quantile_level(0.05, 128)))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert float(completed.stdout) == 1.0

    @given(delta=st.floats(0.01, 0.5), k=st.integers(2, 5000))
    @settings(max_examples=80, deadline=None)
    def test_property_level_in_unit_interval_and_above_confidence(self, delta, k):
        level = conservative_quantile_level(delta, k)
        assert 0.0 < level <= 1.0
        # The conservative level is never below the nominal confidence 1 − δ
        # capped at 1 (it corrects *upwards* for Monte-Carlo error).
        assert level >= min(1.0 - delta, 1.0) - 1e-12


class TestConservativeUpperBound:
    def test_returns_max_when_level_capped(self):
        values = np.array([0.01, 0.02, 0.5, 0.03])
        assert conservative_upper_bound(values, delta=0.05) == 0.5

    def test_returns_quantile_for_loose_delta(self):
        values = np.linspace(0, 1, 1001)
        bound = conservative_upper_bound(values, delta=0.4)
        # Should be roughly the 64% quantile: (1-0.4)/0.95 + small slack.
        assert 0.6 < bound < 0.7

    def test_bound_dominates_required_fraction_of_values(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(size=500)
        delta = 0.2
        bound = conservative_upper_bound(values, delta)
        level = conservative_quantile_level(delta, 500)
        assert np.mean(values <= bound) >= level - 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            conservative_upper_bound(np.array([]), 0.1)

    @given(
        values=st.lists(st.floats(0, 1), min_size=1, max_size=200),
        delta=st.floats(0.01, 0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_bound_is_one_of_the_values_and_monotone_in_delta(self, values, delta):
        array = np.array(values)
        bound = conservative_upper_bound(array, delta)
        assert bound in array
        # Smaller δ (stricter) can only increase the bound.
        stricter = conservative_upper_bound(array, delta / 2)
        assert stricter >= bound - 1e-12


class TestProbabilityThreshold:
    def test_all_below_epsilon_satisfies(self):
        values = np.full(64, 0.01)
        assert satisfies_probability_threshold(values, epsilon=0.05, delta=0.05)

    def test_any_violation_fails_under_capped_level(self):
        values = np.full(64, 0.01)
        values[0] = 0.2
        assert not satisfies_probability_threshold(values, epsilon=0.05, delta=0.05)

    def test_partial_violations_allowed_for_loose_delta(self):
        values = np.concatenate([np.full(90, 0.01), np.full(10, 0.9)])
        assert satisfies_probability_threshold(values, epsilon=0.05, delta=0.3)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            satisfies_probability_threshold(np.array([]), 0.1, 0.1)


class TestGeneralizationBound:
    def test_formula(self):
        assert generalization_error_bound(0.2, 0.1) == pytest.approx(0.2 + 0.1 - 0.02)

    def test_zero_epsilon_reduces_to_generalization_error(self):
        assert generalization_error_bound(0.3, 0.0) == pytest.approx(0.3)

    def test_bound_stays_in_unit_interval(self):
        assert generalization_error_bound(1.0, 1.0) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ContractError):
            generalization_error_bound(-0.1, 0.1)
        with pytest.raises(ContractError):
            generalization_error_bound(0.1, 1.5)

    @given(eg=st.floats(0, 1), eps=st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_property_bound_dominates_both_terms_and_stays_in_unit_interval(self, eg, eps):
        bound = generalization_error_bound(eg, eps)
        assert bound >= eg - 1e-12
        assert bound >= eps - 1e-12
        assert bound <= 1.0 + 1e-12
