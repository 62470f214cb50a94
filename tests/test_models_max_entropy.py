"""Tests for the max-entropy (softmax) classifier specification."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.exceptions import ModelSpecError
from repro.models.max_entropy import MaxEntropySpec, softmax


@pytest.fixture(scope="module")
def blob_data():
    rng = np.random.default_rng(2)
    n_per_class, d, K = 150, 4, 3
    centers = rng.normal(scale=3.0, size=(K, d))
    X = np.vstack([rng.normal(size=(n_per_class, d)) + centers[k] for k in range(K)])
    y = np.repeat(np.arange(K), n_per_class)
    permutation = rng.permutation(len(y))
    return Dataset(X[permutation], y[permutation]), K


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probabilities = softmax(rng.normal(size=(10, 4)))
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(10))

    def test_stability_for_large_logits(self):
        probabilities = softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.all(np.isfinite(probabilities))
        assert probabilities[0, 0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))


class TestObjective:
    def test_parameter_count(self, blob_data):
        data, K = blob_data
        spec = MaxEntropySpec(n_classes=K)
        assert spec.n_parameters(data) == K * data.n_features

    def test_class_count_inferred_from_labels(self, blob_data):
        data, K = blob_data
        spec = MaxEntropySpec()
        assert spec.n_parameters(data) == K * data.n_features
        assert spec.n_classes == K

    def test_loss_at_zero_is_log_K(self, blob_data):
        data, K = blob_data
        spec = MaxEntropySpec(n_classes=K, regularization=0.0)
        theta = np.zeros(K * data.n_features)
        assert spec.loss(theta, data) == pytest.approx(np.log(K))

    def test_gradient_matches_numerical(self, blob_data, gradient_checker):
        data, K = blob_data
        small = data.take(np.arange(80))
        spec = MaxEntropySpec(n_classes=K, regularization=0.01)
        rng = np.random.default_rng(3)
        theta = 0.1 * rng.normal(size=K * data.n_features)
        numerical = gradient_checker(lambda t: spec.loss(t, small), theta)
        np.testing.assert_allclose(spec.gradient(theta, small), numerical, atol=1e-5)

    def test_hessian_matches_numerical(self, blob_data, gradient_checker):
        data, K = blob_data
        small = data.take(np.arange(50))
        spec = MaxEntropySpec(n_classes=K, regularization=0.05)
        theta = np.full(K * data.n_features, 0.1)
        H = spec.hessian(theta, small)
        p = K * data.n_features
        assert H.shape == (p, p)
        for j in [0, p // 2, p - 1]:
            unit = np.zeros(p)
            unit[j] = 1.0
            numerical_col = gradient_checker(
                lambda t: float(spec.gradient(t, small) @ unit), theta
            )
            np.testing.assert_allclose(H[:, j], numerical_col, atol=1e-5)

    def test_per_example_gradient_shape(self, blob_data):
        data, K = blob_data
        spec = MaxEntropySpec(n_classes=K)
        theta = np.zeros(K * data.n_features)
        per_example = spec.per_example_gradients(theta, data)
        assert per_example.shape == (data.n_rows, K * data.n_features)

    def test_rejects_labels_outside_class_range(self):
        spec = MaxEntropySpec(n_classes=2)
        data = Dataset(np.zeros((3, 2)), np.array([0, 1, 2]))
        with pytest.raises(ModelSpecError):
            spec.loss(np.zeros(4), data)

    def test_rejects_single_class_configuration(self):
        with pytest.raises(ModelSpecError):
            MaxEntropySpec(n_classes=1)

    def test_reshape_validates_length(self, blob_data):
        data, K = blob_data
        spec = MaxEntropySpec(n_classes=K)
        with pytest.raises(ModelSpecError):
            spec.reshape(np.zeros(5), data.n_features)


class TestFitPredictDiff:
    def test_fit_reaches_high_training_accuracy(self, blob_data):
        data, K = blob_data
        spec = MaxEntropySpec(n_classes=K, regularization=1e-3)
        model = spec.fit(data)
        accuracy = float(np.mean(model.predict(data.X) == data.y))
        assert accuracy > 0.9

    def test_predictions_in_class_range(self, blob_data):
        data, K = blob_data
        spec = MaxEntropySpec(n_classes=K)
        predictions = spec.predict(np.zeros(K * data.n_features) + 0.1, data.X)
        assert set(np.unique(predictions)) <= set(range(K))

    def test_difference_identical_and_bounds(self, blob_data):
        data, K = blob_data
        spec = MaxEntropySpec(n_classes=K)
        rng = np.random.default_rng(4)
        theta_a = rng.normal(size=K * data.n_features)
        theta_b = rng.normal(size=K * data.n_features)
        assert spec.prediction_difference(theta_a, theta_a, data) == 0.0
        assert 0.0 <= spec.prediction_difference(theta_a, theta_b, data) <= 1.0

    def test_predict_takes_logit_argmax_on_near_ties(self):
        # Logits 0 and 1e-17: softmax rounds both probabilities to 0.5, so
        # only the argmax of the raw logits sees that class 1 wins.
        spec = MaxEntropySpec(n_classes=2)
        X = np.array([[1.0, 1e-17]])
        theta = np.array([0.0, 0.0, 0.0, 1.0])
        assert spec.predict(theta, X).tolist() == [1]
        assert spec.predict_many(theta[None, :], X).tolist() == [[1]]
