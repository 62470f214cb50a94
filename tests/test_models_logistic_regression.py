"""Tests for the logistic regression model class specification."""

import numpy as np
import pytest

import repro.models.logistic_regression as lr_module
from repro.data.dataset import Dataset
from repro.data.synthetic import higgs_like
from repro.evaluation.streaming import (
    StreamingConfig,
    streaming_fanout_pairwise_prediction_differences,
    streaming_prediction_differences,
)
from repro.exceptions import ModelSpecError
from repro.models.logistic_regression import LogisticRegressionSpec, log_sigmoid, sigmoid


# The earlier masked σ and two-term loss, kept verbatim as the references the
# branch-free σ and the one-term loss must reproduce bit for bit.
def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def reference_loss(spec: LogisticRegressionSpec, theta: np.ndarray, dataset: Dataset) -> float:
    z = dataset.X @ theta
    t = dataset.y.astype(np.float64)
    # −[t log σ(z) + (1 − t) log σ(−z)] written with stable log-sigmoids.
    log_likelihood = t * log_sigmoid(z) + (1.0 - t) * log_sigmoid(-z)
    data_term = -float(np.mean(log_likelihood))
    reg_term = 0.5 * spec.regularization * float(theta @ theta)
    return data_term + reg_term


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Byte-for-byte equality, except that any NaN matches any NaN."""
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()


@pytest.fixture(scope="module")
def separable_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(600, 5))
    theta_true = np.array([2.0, -1.0, 0.5, 0.0, 1.5])
    probs = sigmoid(X @ theta_true)
    y = (rng.uniform(size=600) < probs).astype(np.int64)
    return Dataset(X, y), theta_true


class TestNumericalPrimitives:
    def test_sigmoid_stability(self):
        values = sigmoid(np.array([-1000.0, -10.0, 0.0, 10.0, 1000.0]))
        assert np.all(np.isfinite(values))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[2] == pytest.approx(0.5)
        assert values[-1] == pytest.approx(1.0)

    def test_log_sigmoid_stability(self):
        values = log_sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert np.all(np.isfinite(values))
        assert values[1] == pytest.approx(np.log(0.5))
        assert values[2] == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_symmetry(self):
        z = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), np.ones_like(z), atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-16, 1.0, 5.0, 300.0])
    def test_sigmoid_matches_masked_reference_bitwise(self, scale):
        z = np.random.default_rng(7).normal(scale=scale, size=4096)
        assert_same_bits(sigmoid(z), reference_sigmoid(z))

    def test_sigmoid_matches_reference_on_strided_view(self):
        z = np.random.default_rng(8).normal(scale=5.0, size=(64, 96))[::3, 1::2]
        assert not z.flags.c_contiguous
        assert_same_bits(sigmoid(z), reference_sigmoid(z))

    def test_sigmoid_matches_reference_on_edge_values(self):
        edges = [0.0, np.inf, 745.0, 800.0, 5e-324]
        z = np.array(edges + [-value for value in edges] + [np.nan])
        actual = sigmoid(z)
        assert_same_bits(actual, reference_sigmoid(z))
        assert np.isnan(actual[-1])


class TestObjective:
    def test_gradient_matches_numerical(self, separable_data, gradient_checker):
        data, _ = separable_data
        spec = LogisticRegressionSpec(regularization=0.01)
        theta = np.linspace(-0.5, 0.5, 5)
        numerical = gradient_checker(lambda t: spec.loss(t, data), theta)
        np.testing.assert_allclose(spec.gradient(theta, data), numerical, atol=1e-5)

    def test_hessian_matches_numerical(self, separable_data, gradient_checker):
        data, _ = separable_data
        spec = LogisticRegressionSpec(regularization=0.05)
        theta = np.full(5, 0.2)
        H = spec.hessian(theta, data)
        for j in range(5):
            unit = np.zeros(5)
            unit[j] = 1.0
            numerical_col = gradient_checker(
                lambda t: float(spec.gradient(t, data) @ unit), theta
            )
            np.testing.assert_allclose(H[:, j], numerical_col, atol=1e-5)

    def test_loss_at_zero_is_log2(self, separable_data):
        data, _ = separable_data
        spec = LogisticRegressionSpec(regularization=0.0)
        assert spec.loss(np.zeros(5), data) == pytest.approx(np.log(2.0))

    def test_per_example_gradient_shape(self, separable_data):
        data, _ = separable_data
        spec = LogisticRegressionSpec()
        per_example = spec.per_example_gradients(np.zeros(5), data)
        assert per_example.shape == (data.n_rows, 5)

    def test_rejects_non_binary_labels(self):
        spec = LogisticRegressionSpec()
        for labels in ([0, 1, 2, 1], [0.0, 0.5, 0.0, 0.5], [0.0, 1.0, np.nan, 1.0]):
            data = Dataset(np.zeros((4, 2)), np.array(labels))
            with pytest.raises(ModelSpecError) as raised:
                spec.loss(np.zeros(2), data)
            assert str(np.unique(labels)) in str(raised.value)

    @pytest.mark.parametrize("labels", [[True, False, True, True], [1.0, 0.0, 1.0, 1.0]])
    def test_accepts_bool_and_float_labels(self, labels):
        spec = LogisticRegressionSpec()
        X = np.random.default_rng(4).normal(size=(4, 2))
        theta = np.array([0.3, -0.7])
        expected = spec.loss(theta, Dataset(X, np.array([1, 0, 1, 1])))
        assert spec.loss(theta, Dataset(X, np.array(labels))) == expected

    def test_loss_matches_two_term_reference_exactly(self):
        data = higgs_like(n_rows=2_000, seed=5)
        spec = LogisticRegressionSpec(regularization=1e-3)
        rng = np.random.default_rng(6)
        for scale in np.geomspace(1e-3, 100.0, 60):
            theta = rng.normal(scale=scale, size=data.n_features)
            assert spec.loss(theta, data) == reference_loss(spec, theta, data)


class TestFitAndPredict:
    def test_fit_recovers_direction_of_truth(self, separable_data):
        data, theta_true = separable_data
        spec = LogisticRegressionSpec(regularization=1e-4)
        model = spec.fit(data)
        cosine = float(model.theta @ theta_true) / (
            np.linalg.norm(model.theta) * np.linalg.norm(theta_true)
        )
        assert cosine > 0.95

    def test_fit_beats_chance_accuracy(self, separable_data):
        data, _ = separable_data
        spec = LogisticRegressionSpec(regularization=1e-3)
        model = spec.fit(data)
        accuracy = float(np.mean(model.predict(data.X) == data.y))
        assert accuracy > 0.8

    def test_predict_proba_in_unit_interval(self, separable_data):
        data, _ = separable_data
        spec = LogisticRegressionSpec()
        probabilities = spec.predict_proba(np.ones(5), data.X)
        assert np.all(probabilities >= 0) and np.all(probabilities <= 1)

    def test_predictions_are_binary(self, separable_data):
        data, _ = separable_data
        spec = LogisticRegressionSpec()
        predictions = spec.predict(np.ones(5), data.X)
        assert set(np.unique(predictions)) <= {0, 1}


class TestSignRule:
    """``predict`` is ``θᵀx ≥ 0``, exact even where σ rounds to 0.5."""

    def test_tiny_negative_logit_predicts_class_0(self):
        spec = LogisticRegressionSpec()
        X = np.array([[1.0]])
        assert spec.predict(np.array([-1e-17]), X).tolist() == [0]
        assert spec.predict_many(np.array([[-1e-17]]), X).tolist() == [[0]]

    @pytest.mark.parametrize("logit", [0.0, -0.0])
    def test_zero_logit_predicts_class_1(self, logit):
        spec = LogisticRegressionSpec()
        X = np.array([[1.0]])
        assert spec.predict(np.array([logit]), X).tolist() == [1]
        assert spec.predict_many(np.array([[logit]]), X).tolist() == [[1]]

    def test_predict_many_rows_match_predict(self, separable_data):
        data, _ = separable_data
        spec = LogisticRegressionSpec()
        Thetas = np.random.default_rng(9).normal(size=(16, 5))
        batched = spec.predict_many(Thetas, data.X)
        assert batched.dtype == np.int64
        for theta, row in zip(Thetas, batched, strict=True):
            np.testing.assert_array_equal(row, spec.predict(theta, data.X))

    def test_matches_probability_threshold_away_from_zero(self, separable_data):
        data, _ = separable_data
        spec = LogisticRegressionSpec()
        for theta in np.random.default_rng(10).normal(size=(8, 5)):
            assert np.all(np.abs(data.X @ theta) > 1e-12)
            np.testing.assert_array_equal(
                spec.predict(theta, data.X), spec.predict_proba(theta, data.X) >= 0.5
            )


class TestDifference:
    def test_identical_parameters(self, separable_data):
        data, _ = separable_data
        spec = LogisticRegressionSpec()
        theta = np.ones(5)
        assert spec.prediction_difference(theta, theta, data) == 0.0

    def test_opposite_parameters_disagree_everywhere(self, separable_data):
        data, theta_true = separable_data
        spec = LogisticRegressionSpec()
        # Flipping the sign of θ flips (almost) every prediction.
        difference = spec.prediction_difference(theta_true, -theta_true, data)
        assert difference > 0.9

    def test_difference_is_a_probability(self, separable_data):
        data, _ = separable_data
        spec = LogisticRegressionSpec()
        rng = np.random.default_rng(0)
        difference = spec.prediction_difference(rng.normal(size=5), rng.normal(size=5), data)
        assert 0.0 <= difference <= 1.0


class TestDiffPathSkipsSigmoid:
    """Disagreement counts come from logit signs: σ never runs on a diff."""

    CONFIGS = [
        StreamingConfig(block_rows=1_000),
        StreamingConfig(block_rows=64, n_workers=2),
    ]

    def diffs(self, data: Dataset) -> list[np.ndarray]:
        spec = LogisticRegressionSpec()
        rng = np.random.default_rng(11)
        theta = rng.normal(size=5)
        Thetas_a = theta + 0.3 * rng.normal(size=(12, 5))
        Thetas_b = theta + 0.3 * rng.normal(size=(12, 5))
        results = [
            np.array([spec.prediction_difference(theta, other, data) for other in Thetas_a])
        ]
        for config in self.CONFIGS:
            results.append(
                streaming_prediction_differences(spec, theta, Thetas_a, data, config)
            )
            results.extend(
                streaming_fanout_pairwise_prediction_differences(
                    spec, [(Thetas_a, Thetas_b), (Thetas_b, Thetas_a)], data, config
                )
            )
        return results

    def test_diffs_bitwise_equal_without_sigmoid(self, separable_data, monkeypatch):
        data, _ = separable_data
        expected = self.diffs(data)

        def no_sigmoid(z):
            raise AssertionError("sigmoid evaluated on the diff path")

        monkeypatch.setattr(lr_module, "sigmoid", no_sigmoid)
        for actual, reference in zip(self.diffs(data), expected, strict=True):
            assert actual.tobytes() == reference.tobytes()


def assert_decisions_match(spec, Thetas, X):
    """The diff path's booleans equal ``predict_many``."""
    decisions = spec._decisions(Thetas, X)
    expected = spec.predict_many(Thetas, X)
    assert decisions.dtype == np.bool_
    assert np.array_equal(decisions.astype(np.int64), expected)
    return expected


class TestDecisionHook:
    """``_decisions`` is ``predict_many``, never widened to int64."""

    def test_integer_ties_at_zero(self):
        rng = np.random.default_rng(4)
        X = rng.integers(-2, 3, size=(400, 3)).astype(np.float64)
        Thetas = rng.integers(-1, 2, size=(16, 3)).astype(np.float64)
        labels = assert_decisions_match(LogisticRegressionSpec(), Thetas, X)
        assert np.mean(Thetas @ X.T == 0) > 0.1  # many logits sit exactly on 0
        assert 0 < labels.mean() < 1

    def test_signed_zero_infinite_and_nan_logits(self):
        # ±10·1e308 overflows to ±inf; a NaN feature makes a NaN logit,
        # which is not ≥ 0.
        X = np.array(
            [[0.0, -0.0], [-0.0, -0.0], [1e308, 0.0], [-1e308, 0.0], [np.nan, 1.0]]
        )
        Thetas = np.array([[10.0, 0.0], [-0.0, 1.0], [-10.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            labels = assert_decisions_match(LogisticRegressionSpec(), Thetas, X)
        assert labels.tolist() == [[1, 1, 1, 0, 0], [1, 1, 1, 1, 0], [1, 1, 0, 1, 0]]

    def test_one_row_block(self, separable_data):
        data, _ = separable_data
        spec = LogisticRegressionSpec()
        Thetas = np.random.default_rng(13).normal(size=(8, 5))
        labels = assert_decisions_match(spec, Thetas, data.X[:1])
        assert labels.shape == (8, 1)
        for theta, row in zip(Thetas, labels, strict=True):
            np.testing.assert_array_equal(row, spec.predict(theta, data.X[:1]))

    def test_validation_errors_match_predict_many(self):
        spec = LogisticRegressionSpec()
        for call in (spec.predict_many, spec._decisions):
            with pytest.raises(ModelSpecError, match=r"\(k, p\) batch"):
                call(np.zeros(3), np.zeros((4, 3)))
