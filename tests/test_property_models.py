"""Hypothesis property tests on the model class specifications.

These probe invariants that must hold for *any* parameter vector and any
well-formed dataset, not just the hand-picked cases of the unit tests:

* losses are finite and bounded below by the regulariser value at θ;
* the averaged per-example gradients plus r(θ) reproduce the full gradient;
* prediction differences are symmetric, bounded and zero on the diagonal;
* classification losses decrease along the negative gradient (descent
  direction sanity);
* the batched ``diff`` — ``predict_many`` and the streamed diff
  accumulators behind ``streaming_prediction_differences`` /
  ``streaming_fanout_pairwise_prediction_differences`` — agrees with the
  scalar ``prediction_difference`` loop to 1e-12 (bitwise for the
  classification families) for every model family and random θ batch, and
  the classifiers' ``_decisions`` labels equal ``predict_many``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.evaluation.streaming import (
    StreamingConfig,
    streaming_fanout_pairwise_prediction_differences,
    streaming_prediction_differences,
)
from repro.exceptions import ModelSpecError
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.models.max_entropy import MaxEntropySpec
from repro.models.poisson_regression import PoissonRegressionSpec
from repro.models.ppca import PPCASpec


def dataset_strategy(task: str):
    """Generate small random datasets of the requested task type."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=8, max_value=40))
        d = draw(st.integers(min_value=2, max_value=6))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        if task == "regression":
            y = rng.normal(size=n)
        elif task == "binary":
            y = rng.integers(0, 2, size=n)
        elif task == "multiclass":
            y = rng.integers(0, 3, size=n)
        elif task == "counts":
            y = rng.poisson(lam=2.0, size=n).astype(np.float64)
        else:
            y = None
        return Dataset(X, y)

    return build()


def theta_strategy(size_fn):
    @st.composite
    def build(draw, dataset):
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        scale = draw(st.floats(min_value=0.01, max_value=2.0))
        rng = np.random.default_rng(seed)
        return scale * rng.normal(size=size_fn(dataset))

    return build


class TestGradientConsistency:
    @given(data=dataset_strategy("regression"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_linear_regression_gradient_is_mean_of_grads(self, data, seed):
        spec = LinearRegressionSpec(regularization=0.1, noise_variance=0.5)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=data.n_features)
        grads = spec.grads(theta, data)
        np.testing.assert_allclose(grads.mean(axis=0), spec.gradient(theta, data), atol=1e-10)

    @given(data=dataset_strategy("binary"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_logistic_gradient_is_mean_of_grads(self, data, seed):
        spec = LogisticRegressionSpec(regularization=0.05)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=data.n_features)
        grads = spec.grads(theta, data)
        np.testing.assert_allclose(grads.mean(axis=0), spec.gradient(theta, data), atol=1e-10)

    @given(data=dataset_strategy("multiclass"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_max_entropy_gradient_is_mean_of_grads(self, data, seed):
        spec = MaxEntropySpec(n_classes=3, regularization=0.05)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=3 * data.n_features)
        grads = spec.grads(theta, data)
        np.testing.assert_allclose(grads.mean(axis=0), spec.gradient(theta, data), atol=1e-10)

    @given(data=dataset_strategy("unsupervised"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_ppca_gradient_is_mean_of_grads(self, data, seed):
        spec = PPCASpec(n_factors=2, sigma2=1.0)
        rng = np.random.default_rng(seed)
        theta = 0.5 * rng.normal(size=2 * data.n_features)
        grads = spec.grads(theta, data)
        np.testing.assert_allclose(grads.mean(axis=0), spec.gradient(theta, data), atol=1e-9)


class TestLossProperties:
    @given(data=dataset_strategy("binary"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_logistic_loss_finite_and_bounded_below(self, data, seed):
        spec = LogisticRegressionSpec(regularization=0.01)
        rng = np.random.default_rng(seed)
        theta = 3 * rng.normal(size=data.n_features)
        loss = spec.loss(theta, data)
        assert np.isfinite(loss)
        assert loss >= 0.5 * 0.01 * float(theta @ theta) - 1e-12

    @given(data=dataset_strategy("binary"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_descent_direction_reduces_logistic_loss(self, data, seed):
        spec = LogisticRegressionSpec(regularization=0.01)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=data.n_features)
        gradient = spec.gradient(theta, data)
        if np.linalg.norm(gradient) < 1e-9:
            return  # already at a stationary point
        step = 1e-4 / max(np.linalg.norm(gradient), 1.0)
        assert spec.loss(theta - step * gradient, data) <= spec.loss(theta, data) + 1e-12

    @given(data=dataset_strategy("regression"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_regression_loss_nonnegative(self, data, seed):
        spec = LinearRegressionSpec(regularization=0.0)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=data.n_features)
        assert spec.loss(theta, data) >= 0.0


class TestDifferenceProperties:
    @given(
        data=dataset_strategy("binary"),
        seed_a=st.integers(0, 2**31 - 1),
        seed_b=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_classification_difference_symmetric_bounded(self, data, seed_a, seed_b):
        spec = LogisticRegressionSpec()
        theta_a = np.random.default_rng(seed_a).normal(size=data.n_features)
        theta_b = np.random.default_rng(seed_b).normal(size=data.n_features)
        forward = spec.prediction_difference(theta_a, theta_b, data)
        backward = spec.prediction_difference(theta_b, theta_a, data)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0
        assert spec.prediction_difference(theta_a, theta_a, data) == 0.0

    @given(
        data=dataset_strategy("regression"),
        seed_a=st.integers(0, 2**31 - 1),
        seed_b=st.integers(0, 2**31 - 1),
        seed_c=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_regression_difference_triangle_inequality(self, data, seed_a, seed_b, seed_c):
        # The RMS prediction difference is a pseudometric on parameters.
        spec = LinearRegressionSpec(normalize_difference=False)
        a = np.random.default_rng(seed_a).normal(size=data.n_features)
        b = np.random.default_rng(seed_b).normal(size=data.n_features)
        c = np.random.default_rng(seed_c).normal(size=data.n_features)
        ab = spec.prediction_difference(a, b, data)
        bc = spec.prediction_difference(b, c, data)
        ac = spec.prediction_difference(a, c, data)
        assert ac <= ab + bc + 1e-9

    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_ppca_difference_scale_invariant(self, seed, scale):
        spec = PPCASpec(n_factors=2)
        dummy = Dataset(np.zeros((2, 3)))  # 3 features, 2 factors
        theta = np.random.default_rng(seed).normal(size=6)
        assert spec.prediction_difference(theta, scale * theta, dummy) == pytest.approx(
            0.0, abs=1e-9
        )


def _batched_case(task: str, n_params_fn, make_spec):
    """Build one (spec, dataset, ref θ, θ batch pair) batched-diff test case."""

    @st.composite
    def build(draw):
        data = draw(dataset_strategy(task))
        spec = make_spec()
        p = n_params_fn(spec, data)
        k = draw(st.integers(min_value=1, max_value=6))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        scale = draw(st.floats(min_value=0.01, max_value=2.0))
        rng = np.random.default_rng(seed)
        theta_ref = scale * rng.normal(size=p)
        batch_a = scale * rng.normal(size=(k, p))
        batch_b = scale * rng.normal(size=(k, p))
        return spec, data, theta_ref, batch_a, batch_b

    return build()


BATCHED_FAMILIES = {
    "lin": ("regression", lambda s, d: d.n_features,
            lambda: LinearRegressionSpec(regularization=0.01)),
    "lr": ("binary", lambda s, d: d.n_features,
           lambda: LogisticRegressionSpec(regularization=0.01)),
    "me": ("multiclass", lambda s, d: 3 * d.n_features,
           lambda: MaxEntropySpec(n_classes=3, regularization=0.01)),
    "poisson": ("counts", lambda s, d: d.n_features,
                lambda: PoissonRegressionSpec(regularization=0.01)),
    "ppca": ("unsupervised", lambda s, d: 2 * d.n_features,
             lambda: PPCASpec(n_factors=2)),
}


def _streaming_configs(data):
    """One block, and several blocks fanned out over 2 threads."""
    return (
        StreamingConfig(block_rows=data.n_rows),
        StreamingConfig(block_rows=7, n_workers=2),
    )


def _assert_batched_matches_loop(spec, data, theta_ref, batch_a, batch_b):
    """The streamed batched ``diff`` must agree with the scalar loop."""
    loop = np.array(
        [spec.prediction_difference(theta_ref, theta, data) for theta in batch_a]
    )
    paired_loop = np.array(
        [spec.prediction_difference(a, b, data) for a, b in zip(batch_a, batch_b)]
    )
    for config in _streaming_configs(data):
        streamed = streaming_prediction_differences(
            spec, theta_ref, batch_a, data, config=config
        )
        paired = streaming_fanout_pairwise_prediction_differences(
            spec, [(batch_a, batch_b)], data, config=config
        )[0]
        if spec.name in ("lr", "me"):
            # Disagreement counts are exact: sharding cannot move a bit.
            assert np.array_equal(streamed, loop)
            assert np.array_equal(paired, paired_loop)
        np.testing.assert_allclose(streamed, loop, atol=1e-12)
        np.testing.assert_allclose(paired, paired_loop, atol=1e-12)

    many = spec.predict_many(batch_a, data.X)
    stacked = np.stack([spec.predict(theta, data.X) for theta in batch_a])
    np.testing.assert_allclose(many, stacked, atol=1e-12)
    if spec.name in ("lr", "me"):
        # The disagreement accumulators' narrow labels are predict_many's.
        assert np.array_equal(spec._decisions(batch_a, data.X).astype(np.int64), many)


class TestBatchedDifferenceConsistency:
    """Streamed batched ``diff`` ≡ scalar ``prediction_difference`` loop, per family."""

    @given(case=_batched_case(*BATCHED_FAMILIES["lin"]))
    @settings(max_examples=25, deadline=None)
    def test_linear_regression(self, case):
        _assert_batched_matches_loop(*case)

    @given(case=_batched_case(*BATCHED_FAMILIES["lr"]))
    @settings(max_examples=25, deadline=None)
    def test_logistic_regression(self, case):
        _assert_batched_matches_loop(*case)

    @given(case=_batched_case(*BATCHED_FAMILIES["me"]))
    @settings(max_examples=20, deadline=None)
    def test_max_entropy(self, case):
        _assert_batched_matches_loop(*case)

    @given(case=_batched_case(*BATCHED_FAMILIES["poisson"]))
    @settings(max_examples=25, deadline=None)
    def test_poisson_regression(self, case):
        _assert_batched_matches_loop(*case)

    @given(case=_batched_case(*BATCHED_FAMILIES["ppca"]))
    @settings(max_examples=15, deadline=None)
    def test_ppca(self, case):
        _assert_batched_matches_loop(*case)

    def test_zero_norm_ppca_batch_matches_loop(self):
        # Degenerate loadings exercise the zero-norm guard of the batched
        # Procrustes path.
        spec = PPCASpec(n_factors=2)
        data = Dataset(np.zeros((2, 3)))
        ref = np.random.default_rng(0).normal(size=6)
        batch = np.vstack([np.zeros(6), np.random.default_rng(1).normal(size=6)])
        _assert_batched_matches_loop(spec, data, ref, batch, batch[::-1])
        zero_ref = streaming_prediction_differences(spec, np.zeros(6), batch, data)
        np.testing.assert_allclose(zero_ref, np.ones(2))

    def test_pairwise_shape_mismatch_rejected(self):
        spec = LinearRegressionSpec(normalize_difference=False)
        data = Dataset(np.ones((4, 3)), np.zeros(4))
        with pytest.raises(ModelSpecError):
            streaming_fanout_pairwise_prediction_differences(
                spec, [(np.ones((2, 3)), np.ones((3, 3)))], data
            )
