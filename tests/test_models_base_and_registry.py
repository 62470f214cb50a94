"""Tests for the ModelClassSpec base behaviour, TrainedModel and the registry."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.store import ShardStore
from repro.exceptions import DataError, ModelSpecError
from repro.models import (
    LinearRegressionSpec,
    LogisticRegressionSpec,
    MaxEntropySpec,
    PoissonRegressionSpec,
    PPCASpec,
    available_models,
    get_model_spec,
)
from repro.models.base import ModelClassSpec


@pytest.fixture(scope="module")
def tiny_regression():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.05, size=200)
    return Dataset(X, y)


class TestHoldoutLabelScale:
    @pytest.mark.parametrize("spec", [LinearRegressionSpec(), PoissonRegressionSpec()])
    def test_in_memory_label_std_is_computed_once(self, spec, monkeypatch):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 3))
        holdout = Dataset(X, rng.poisson(2.0, size=500).astype(np.float64))
        expected = float(np.std(holdout.y))
        calls = []
        std = np.std

        def counting_std(*args, **kwargs):
            calls.append(1)
            return std(*args, **kwargs)

        monkeypatch.setattr(np, "std", counting_std)
        theta = np.zeros(3)
        Thetas = rng.normal(scale=0.1, size=(4, 3))
        for _ in range(10):
            spec.diff_accumulator(theta, Thetas, holdout)
            spec.pairwise_diff_accumulator(Thetas, Thetas[::-1], holdout)
        assert len(calls) == 1
        assert holdout.label_std().hex() == expected.hex()

    @pytest.mark.parametrize("spec", [LinearRegressionSpec(), PoissonRegressionSpec()])
    def test_unlabeled_holdout_raises_for_both_kinds(self, spec, tmp_path):
        X = np.random.default_rng(5).normal(size=(300, 3))
        in_memory = Dataset(X)
        sharded = ShardStore.write(in_memory, tmp_path, shard_rows=100).dataset()
        with pytest.raises(DataError):
            in_memory.label_std()
        Thetas = np.zeros((2, 3))
        for holdout in (in_memory, sharded):
            with pytest.raises(ModelSpecError, match="needs holdout labels"):
                spec.diff_accumulator(np.zeros(3), Thetas, holdout)
            with pytest.raises(ModelSpecError, match="needs holdout labels"):
                spec.pairwise_diff_accumulator(Thetas, Thetas, holdout)


class TestBaseBehaviour:
    def test_objective_adapter_consistency(self, tiny_regression):
        spec = LinearRegressionSpec(regularization=0.01)
        objective = spec.objective(tiny_regression)
        theta = np.array([0.3, -0.2, 0.1])
        loss = spec.loss(theta, tiny_regression)
        gradient = spec.gradient(theta, tiny_regression)
        fused_value, fused_gradient = objective.value_and_gradient(theta)
        assert fused_value == loss
        assert fused_gradient.tobytes() == gradient.tobytes()

    def test_custom_spec_inherits_loss_and_gradient(self, tiny_regression):
        class SquaredError(ModelClassSpec):
            def n_parameters(self, dataset):
                return dataset.n_features

            def loss(self, theta, dataset):
                return 0.5 * float(np.mean((dataset.X @ theta - dataset.y) ** 2))

            def per_example_gradients(self, theta, dataset):
                return (dataset.X @ theta - dataset.y)[:, None] * dataset.X

            def predict(self, theta, X):
                return X @ theta

            def prediction_difference(self, theta_a, theta_b, dataset):
                return 0.0

        spec = SquaredError()
        theta = np.array([0.3, -0.2, 0.1])
        value, gradient = spec.objective(tiny_regression).value_and_gradient(theta)
        assert value == spec.loss(theta, tiny_regression)
        assert gradient.tobytes() == spec.gradient(theta, tiny_regression).tobytes()

    def test_initial_parameters_are_zero_by_default(self, tiny_regression):
        spec = LinearRegressionSpec()
        np.testing.assert_array_equal(spec.initial_parameters(tiny_regression), np.zeros(3))

    def test_fit_produces_trained_model(self, tiny_regression):
        spec = LinearRegressionSpec(regularization=1e-4)
        model = spec.fit(tiny_regression)
        assert model.n_train == tiny_regression.n_rows
        assert model.n_parameters == 3
        assert model.optimization is not None
        assert model.optimization.converged

    def test_fit_with_warm_start(self, tiny_regression):
        spec = LinearRegressionSpec(regularization=1e-4)
        cold = spec.fit(tiny_regression)
        warm = spec.fit(tiny_regression, theta0=cold.theta)
        np.testing.assert_allclose(warm.theta, cold.theta, atol=1e-5)
        assert warm.optimization.n_iterations <= cold.optimization.n_iterations

    def test_trained_model_difference_requires_same_spec_type(self, tiny_regression):
        lin = LinearRegressionSpec().fit(tiny_regression)
        binary = Dataset(tiny_regression.X, (tiny_regression.y > 0).astype(int))
        lr = LogisticRegressionSpec().fit(binary)
        with pytest.raises(ModelSpecError):
            lin.difference(lr, tiny_regression)

    def test_trained_model_difference_same_spec(self, tiny_regression):
        spec = LinearRegressionSpec()
        a = spec.fit(tiny_regression)
        b = spec.fit(tiny_regression)
        assert a.difference(b, tiny_regression) == pytest.approx(0.0, abs=1e-6)

    def test_has_closed_form_hessian_flags(self):
        assert LinearRegressionSpec().has_closed_form_hessian
        assert LogisticRegressionSpec().has_closed_form_hessian
        assert MaxEntropySpec(n_classes=3).has_closed_form_hessian
        assert not PPCASpec().has_closed_form_hessian

    def test_abstract_base_cannot_be_instantiated(self):
        with pytest.raises(TypeError):
            ModelClassSpec()  # type: ignore[abstract]


class TestRegistry:
    def test_available_models(self):
        assert available_models() == ["lin", "lr", "me", "poisson", "ppca"]

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("lin", LinearRegressionSpec),
            ("LR", LogisticRegressionSpec),
            ("me", MaxEntropySpec),
            ("poisson", PoissonRegressionSpec),
            ("ppca", PPCASpec),
            ("logistic_regression", LogisticRegressionSpec),
        ],
    )
    def test_lookup(self, name, expected):
        assert isinstance(get_model_spec(name), expected)

    def test_kwargs_forwarded(self):
        spec = get_model_spec("lin", regularization=0.7)
        assert spec.regularization == 0.7

    def test_unknown_model(self):
        with pytest.raises(ModelSpecError):
            get_model_spec("random_forest")
