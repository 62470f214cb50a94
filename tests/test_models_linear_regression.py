"""Tests for the linear regression model class specification."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.evaluation.streaming import (
    StreamingConfig,
    streaming_fanout_pairwise_prediction_differences,
)
from repro.exceptions import ModelSpecError
from repro.models.linear_regression import LinearRegressionSpec


@pytest.fixture(scope="module")
def small_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 6))
    theta_true = rng.normal(size=6)
    y = X @ theta_true + rng.normal(scale=0.1, size=400)
    return Dataset(X, y), theta_true


class TestObjective:
    def test_loss_at_truth_is_small(self, small_data):
        data, theta_true = small_data
        spec = LinearRegressionSpec(regularization=0.0)
        noise_level = spec.loss(theta_true, data)
        assert noise_level < 0.02  # ~0.5 * noise variance

    def test_gradient_matches_numerical(self, small_data, gradient_checker):
        data, _ = small_data
        spec = LinearRegressionSpec(regularization=0.01)
        theta = np.linspace(-1, 1, 6)
        numerical = gradient_checker(lambda t: spec.loss(t, data), theta)
        np.testing.assert_allclose(spec.gradient(theta, data), numerical, atol=1e-5)

    def test_per_example_gradients_average_to_data_gradient(self, small_data):
        data, _ = small_data
        spec = LinearRegressionSpec(regularization=0.05)
        theta = np.ones(6)
        per_example = spec.per_example_gradients(theta, data)
        assert per_example.shape == (data.n_rows, 6)
        expected = per_example.mean(axis=0) + spec.regularizer_gradient(theta)
        np.testing.assert_allclose(spec.gradient(theta, data), expected)

    def test_grads_includes_regularizer(self, small_data):
        data, _ = small_data
        spec = LinearRegressionSpec(regularization=0.5)
        theta = np.ones(6)
        grads = spec.grads(theta, data)
        per_example = spec.per_example_gradients(theta, data)
        np.testing.assert_allclose(grads - per_example, np.tile(0.5 * theta, (data.n_rows, 1)))

    def test_hessian_is_closed_form(self, small_data, gradient_checker):
        data, _ = small_data
        spec = LinearRegressionSpec(regularization=0.1)
        assert spec.has_closed_form_hessian
        theta = np.zeros(6)
        H = spec.hessian(theta, data)
        # Each Hessian column equals the numerical derivative of the gradient.
        for j in range(3):
            unit = np.zeros(6)
            unit[j] = 1.0
            numerical_col = gradient_checker(
                lambda t: float(spec.gradient(t, data) @ unit), theta
            )
            np.testing.assert_allclose(H[:, j], numerical_col, atol=1e-5)

    def test_negative_regularization_rejected(self):
        with pytest.raises(ModelSpecError):
            LinearRegressionSpec(regularization=-0.1)

    def test_requires_labels(self):
        spec = LinearRegressionSpec()
        data = Dataset(np.zeros((5, 2)))
        with pytest.raises(ModelSpecError):
            spec.loss(np.zeros(2), data)


class TestFitAndPredict:
    def test_fit_recovers_true_parameters(self, small_data):
        data, theta_true = small_data
        spec = LinearRegressionSpec(regularization=1e-6)
        model = spec.fit(data)
        np.testing.assert_allclose(model.theta, theta_true, atol=0.05)

    def test_fit_matches_ridge_closed_form(self, small_data):
        data, _ = small_data
        beta = 0.1
        spec = LinearRegressionSpec(regularization=beta)
        model = spec.fit(data)
        n, d = data.X.shape
        closed_form = np.linalg.solve(
            data.X.T @ data.X / n + beta * np.eye(d), data.X.T @ data.y / n
        )
        np.testing.assert_allclose(model.theta, closed_form, atol=1e-4)

    def test_predictions_are_linear(self, small_data):
        data, _ = small_data
        spec = LinearRegressionSpec()
        theta = np.arange(6, dtype=float)
        np.testing.assert_allclose(spec.predict(theta, data.X), data.X @ theta)


class TestDifference:
    def test_zero_for_identical_parameters(self, small_data):
        data, _ = small_data
        spec = LinearRegressionSpec()
        theta = np.ones(6)
        assert spec.prediction_difference(theta, theta, data) == 0.0

    def test_symmetry(self, small_data):
        data, _ = small_data
        spec = LinearRegressionSpec()
        a, b = np.ones(6), np.zeros(6)
        assert spec.prediction_difference(a, b, data) == pytest.approx(
            spec.prediction_difference(b, a, data)
        )

    def test_normalisation_uses_label_scale(self, small_data):
        data, _ = small_data
        normalized = LinearRegressionSpec(normalize_difference=True)
        raw = LinearRegressionSpec(normalize_difference=False)
        a, b = np.ones(6), np.zeros(6)
        ratio = raw.prediction_difference(a, b, data) / normalized.prediction_difference(a, b, data)
        assert ratio == pytest.approx(float(np.std(data.y)))

    def test_grows_with_parameter_distance(self, small_data):
        data, _ = small_data
        spec = LinearRegressionSpec()
        base = np.zeros(6)
        near = np.full(6, 0.01)
        far = np.full(6, 1.0)
        assert spec.prediction_difference(base, near, data) < spec.prediction_difference(
            base, far, data
        )

    def test_subclass_predictions_drive_its_streamed_pairwise_diffs(self, small_data):
        # A subclass whose predictions are not X θ streams them, pair by
        # pair, and must agree with its own scalar diff.
        class OffsetLinearRegression(LinearRegressionSpec):
            def predict(self, theta, X):
                return super().predict(theta, X) + 1.0

            def predict_many(self, Thetas, X):
                return super().predict_many(Thetas, X) + 1.0

        data, _ = small_data
        spec = OffsetLinearRegression()
        rng = np.random.default_rng(3)
        Thetas_a, Thetas_b = rng.normal(size=(2, 3, 6))
        streamed = streaming_fanout_pairwise_prediction_differences(
            spec, [(Thetas_a, Thetas_b)], data, config=StreamingConfig(block_rows=64)
        )[0]
        scalar = [spec.prediction_difference(a, b, data) for a, b in zip(Thetas_a, Thetas_b)]
        np.testing.assert_allclose(streamed, scalar, rtol=1e-12, atol=0.0)

    def test_describe(self):
        description = LinearRegressionSpec(regularization=0.2).describe()
        assert description["model"] == "lin"
        assert description["regularization"] == 0.2
