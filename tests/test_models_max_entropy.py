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


class _FixedLogits(MaxEntropySpec):
    """A spec whose batch logits are given, to pin the labelling rule alone."""

    def __init__(self, logits):
        logits = np.asarray(logits, dtype=np.float64)
        super().__init__(n_classes=logits.shape[1])
        self.logits = logits

    def _batch_logits(self, Thetas, X):
        return self.logits


def assert_decisions_match(spec, Thetas, X):
    """The diff path's labels equal ``predict_many``, in a narrow unsigned dtype."""
    decisions = spec._decisions(Thetas, X)
    expected = spec.predict_many(Thetas, X)
    assert decisions.dtype == np.min_scalar_type(spec.n_classes - 1)
    assert decisions.shape == expected.shape
    assert np.array_equal(decisions.astype(np.int64), expected)
    return expected


def integer_case(K, d, n, k, seed):
    """Integer-valued X and Θ: the logits are exact and tie often."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    Thetas = rng.integers(-1, 2, size=(k, K * d)).astype(np.float64)
    return Thetas, X


class TestDecisionHook:
    """``_decisions`` is ``predict_many`` wherever ``argmax`` is delicate."""

    @pytest.mark.parametrize("K", [2, 3, 10])
    def test_integer_ties(self, K):
        Thetas, X = integer_case(K, d=3, n=400, k=16, seed=K)
        labels = assert_decisions_match(MaxEntropySpec(n_classes=K), Thetas, X)
        logits = (Thetas.reshape(-1, 3) @ X.T).reshape(16, K, -1)
        tied = (logits == logits.max(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.mean() > 0.1  # the case exercises ties, not just distinct maxima
        assert set(np.unique(labels)) == set(range(K))

    def test_two_way_all_way_and_last_class_ties(self):
        # Logits equal the features: Θ is the identity, one row per case.
        X = np.array(
            [
                [1.0, 3.0, 3.0, 0.0],  # two-way tie, first tied class wins
                [2.0, 2.0, 2.0, 2.0],  # all-K tie
                [3.0, 1.0, 2.0, 3.0],  # tie with the last class
                [0.0, 1.0, 2.0, 4.0],  # the last class alone
                [-1.0, -1.0, -1.0, -1.0],
            ]
        )
        spec = MaxEntropySpec(n_classes=4)
        labels = assert_decisions_match(spec, np.eye(4).reshape(1, -1), X)
        assert labels.tolist() == [[1, 0, 0, 3, 0]]

    @pytest.mark.parametrize(
        "row, expected",
        [
            ([-0.0, 0.0, -1.0], 0),
            ([0.0, -0.0, -1.0], 0),
            ([-1.0, -0.0, 0.0], 1),
            ([np.inf, np.inf, 1.0], 0),
            ([1.0, np.inf, np.inf], 1),
            ([-np.inf, -np.inf, -np.inf], 0),
            ([-np.inf, -5.0, -np.inf], 1),
            ([1.0, np.nan, 3.0], 1),  # a running max alone would say 0
            ([np.nan, 5.0, np.nan], 0),
            ([2.0, 5.0, np.nan], 2),
            ([np.inf, np.nan, np.inf], 1),
        ],
    )
    def test_signed_zeros_infinities_and_nan(self, row, expected):
        # Each row rides in a block of ordinary rows, so the NaN fallback
        # must still label those like argmax does.
        logits = np.array([row, [0.5, -2.0, 0.25], [3.0, 3.0, 1.0]]).T[None]
        spec = _FixedLogits(logits)
        labels = assert_decisions_match(spec, None, None)
        assert labels.tolist() == [[expected, 0, 0]]

    def test_nan_and_inf_from_the_gemm(self):
        # ±10·1e308 overflows to ±inf; a NaN feature makes every class NaN.
        X = np.array([[1e308, 1.0], [-1e308, 1.0], [np.nan, 1.0], [0.0, 1.0]])
        Theta = np.array([[0.0, 1.0], [10.0, 0.0], [-10.0, 2.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            labels = assert_decisions_match(
                MaxEntropySpec(n_classes=3), Theta.reshape(1, -1), X
            )
        assert labels.tolist() == [[1, 2, 0, 2]]

    def test_signed_zeros_through_the_gemm(self):
        X = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
        Thetas = np.array([[1.0, 0.0, 0.0, 1.0, -1.0, 0.0], [-0.0, 0.0, 0.0, -0.0, 0.0, 1.0]])
        labels = assert_decisions_match(MaxEntropySpec(n_classes=3), Thetas, X)
        assert labels.tolist() == [[0, 0, 0], [0, 0, 0]]

    def test_labels_past_eight_bits(self):
        K = 300
        Thetas, X = integer_case(K, d=2, n=64, k=4, seed=7)
        Thetas[:, -2:] = 40.0  # the last class wins wherever x > 0
        spec = MaxEntropySpec(n_classes=K)
        labels = assert_decisions_match(spec, Thetas, X)
        assert spec._decisions(Thetas, X).dtype == np.uint16
        assert labels.max() == K - 1

    @pytest.mark.parametrize("K", [2, 5])
    def test_one_row_block(self, K):
        Thetas, X = integer_case(K, d=3, n=1, k=8, seed=3)
        assert_decisions_match(MaxEntropySpec(n_classes=K), Thetas, X)
        rng = np.random.default_rng(K)
        assert_decisions_match(
            MaxEntropySpec(n_classes=K), rng.normal(size=(8, 3 * K)), rng.normal(size=(1, 3))
        )

    def test_validation_errors_match_predict_many(self):
        X = np.zeros((4, 3))
        unknown = MaxEntropySpec()
        for call in (unknown.predict_many, unknown._decisions):
            with pytest.raises(ModelSpecError, match="class count unknown"):
                call(np.zeros((2, 9)), X)
        spec = MaxEntropySpec(n_classes=3)
        for call in (spec.predict_many, spec._decisions):
            with pytest.raises(ModelSpecError, match="length 8, expected 9"):
                call(np.zeros((2, 8)), X)
            with pytest.raises(ModelSpecError, match=r"\(k, p\) batch"):
                call(np.zeros(9), X)


class TestLabelIntegrality:
    """Float labels must be whole numbers: ``astype(np.intp)`` would truncate them."""

    FRACTIONAL = np.array([0.5, 1.7, 2.2, 0.0] * 5)

    def test_loss_and_fit_reject_fractional_labels(self):
        data = Dataset(np.ones((20, 3)), self.FRACTIONAL)
        spec = MaxEntropySpec(n_classes=3)
        with pytest.raises(ModelSpecError, match="non-negative integers"):
            spec.loss(np.zeros(9), data)
        with pytest.raises(ModelSpecError, match="non-negative integers"):
            spec.fit(data)

    def test_class_count_is_not_inferred_from_a_fractional_label(self):
        data = Dataset(np.ones((4, 2)), np.array([0.0, 1.0, 3.9, 2.0]))
        spec = MaxEntropySpec()
        with pytest.raises(ModelSpecError, match="non-negative integers"):
            spec.n_parameters(data)
        assert spec.n_classes is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_and_negative_labels_rejected(self, bad):
        data = Dataset(np.ones((3, 2)), np.array([0.0, bad, 1.0]))
        with pytest.raises(ModelSpecError, match="non-negative integers"):
            MaxEntropySpec(n_classes=3).validate_dataset(data)

    def test_whole_float_labels_train_like_integer_labels(self, blob_data):
        data, K = blob_data
        as_float = Dataset(data.X, data.y.astype(np.float64))
        spec = MaxEntropySpec(n_classes=K)
        theta = np.random.default_rng(5).normal(size=K * data.n_features)
        assert spec.loss(theta, as_float) == spec.loss(theta, data)
        assert MaxEntropySpec().n_parameters(as_float) == K * data.n_features
