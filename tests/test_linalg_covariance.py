"""Tests for the factored covariance H^-1 J H^-1.

These tests pin down the central numerical identity of the paper: the
SVD-based factor built from per-example gradients must agree with the dense
H^-1 J H^-1 computed explicitly.  Gradients reach the factor the way the
statistics tier feeds them: a TSQR summary, then
``FactoredCovariance.from_gradient_summary``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StatisticsError
from repro.linalg.covariance import FactoredCovariance
from repro.linalg.moments import GradientMomentSummary


def dense_reference(Q: np.ndarray, beta: float) -> np.ndarray:
    """Direct computation of H^-1 J H^-1 from per-example gradients."""
    n, d = Q.shape
    J = Q.T @ Q / n
    H = J + beta * np.eye(d)
    H_inv = np.linalg.inv(H)
    return H_inv @ J @ H_inv


def factor_from_gradients(Q, regularization=0.0) -> FactoredCovariance:
    """The ObservedFisher path: summarise Q, then factor the summary."""
    return FactoredCovariance.from_gradient_summary(
        GradientMomentSummary.from_gradients(Q), regularization=regularization
    )


class TestFromPerExampleGradients:
    @pytest.mark.parametrize("beta", [1e-3, 1e-1, 1.0])
    def test_matches_dense_reference(self, beta):
        rng = np.random.default_rng(0)
        Q = rng.normal(size=(300, 8))
        factor = factor_from_gradients(Q, regularization=beta)
        np.testing.assert_allclose(factor.dense(), dense_reference(Q, beta), atol=1e-8)

    def test_zero_regularization_uses_pseudo_inverse_of_J(self):
        rng = np.random.default_rng(1)
        Q = rng.normal(size=(200, 5))
        factor = factor_from_gradients(Q, regularization=0.0)
        J = Q.T @ Q / 200
        np.testing.assert_allclose(factor.dense(), np.linalg.inv(J), atol=1e-7)

    def test_rank_deficient_gradients(self):
        # Gradients living in a 3-dimensional subspace of a 6-dimensional
        # parameter space: the factor's rank must not exceed 3.
        rng = np.random.default_rng(2)
        basis = rng.normal(size=(3, 6))
        Q = rng.normal(size=(100, 3)) @ basis
        factor = factor_from_gradients(Q, regularization=0.01)
        assert factor.rank <= 3

    def test_requires_2d(self):
        with pytest.raises(StatisticsError):
            factor_from_gradients(np.zeros(5))

    def test_requires_two_rows(self):
        with pytest.raises(StatisticsError):
            factor_from_gradients(np.ones((1, 3)))

    def test_requires_nonzero_variance(self):
        with pytest.raises(StatisticsError):
            factor_from_gradients(np.zeros((10, 3)))

    def test_negative_regularization_rejected(self):
        with pytest.raises(StatisticsError):
            factor_from_gradients(np.ones((5, 2)), regularization=-1.0)


class TestFromDense:
    def test_matches_explicit_computation(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        J = A @ A.T / 6
        H = J + 0.05 * np.eye(6)
        factor = FactoredCovariance.from_dense(H, J, regularization=0.05)
        expected = np.linalg.inv(H) @ J @ np.linalg.inv(H)
        np.testing.assert_allclose(factor.dense(), expected, atol=1e-8)

    def test_agrees_with_gradient_construction(self):
        rng = np.random.default_rng(4)
        Q = rng.normal(size=(400, 7))
        beta = 0.01
        J = Q.T @ Q / 400
        H = J + beta * np.eye(7)
        from_dense = FactoredCovariance.from_dense(H, J, regularization=beta)
        from_grads = factor_from_gradients(Q, regularization=beta)
        np.testing.assert_allclose(from_dense.dense(), from_grads.dense(), atol=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(StatisticsError):
            FactoredCovariance.from_dense(np.eye(3), np.eye(4))

    def test_singular_hessian(self):
        with pytest.raises(StatisticsError):
            FactoredCovariance.from_dense(np.zeros((3, 3)), np.eye(3))


class TestApplyAndDiagnostics:
    def test_apply_matches_dense_transform(self):
        rng = np.random.default_rng(5)
        Q = rng.normal(size=(100, 4))
        factor = factor_from_gradients(Q, regularization=0.1)
        z = rng.normal(size=(20, factor.rank))
        np.testing.assert_allclose(factor.apply(z), z @ factor.transform.T)

    def test_apply_rejects_wrong_rank(self):
        rng = np.random.default_rng(6)
        factor = factor_from_gradients(
            rng.normal(size=(50, 4)), regularization=0.1
        )
        with pytest.raises(StatisticsError):
            factor.apply(np.zeros((3, factor.rank + 1)))

    def test_marginal_variances_match_dense_diagonal(self):
        rng = np.random.default_rng(7)
        factor = factor_from_gradients(
            rng.normal(size=(150, 6)), regularization=0.2
        )
        np.testing.assert_allclose(
            factor.marginal_variances(), np.diag(factor.dense()), atol=1e-10
        )

    def test_scaled(self):
        rng = np.random.default_rng(8)
        factor = factor_from_gradients(
            rng.normal(size=(80, 3)), regularization=0.5
        )
        np.testing.assert_allclose(factor.scaled(0.25), 0.25 * factor.dense())
        with pytest.raises(StatisticsError):
            factor.scaled(-1.0)

    def test_sampled_covariance_matches_factor(self):
        # L z with z ~ N(0, I) must reproduce the covariance empirically.
        rng = np.random.default_rng(9)
        Q = rng.normal(size=(500, 3))
        factor = factor_from_gradients(Q, regularization=0.3)
        z = rng.standard_normal(size=(60_000, factor.rank))
        samples = factor.apply(z)
        empirical = samples.T @ samples / samples.shape[0]
        np.testing.assert_allclose(empirical, factor.dense(), atol=0.05)


class TestLambdaProperty:
    @given(
        s=st.lists(st.floats(0.05, 10.0), min_size=1, max_size=6),
        beta=st.floats(0.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_lambda_formula(self, s, beta):
        s = np.sort(np.array(s))[::-1]
        lam = FactoredCovariance._lambda_from_singular_values(s, beta)
        if beta == 0.0:
            np.testing.assert_allclose(lam, 1.0 / s)
        else:
            np.testing.assert_allclose(lam, s / (s**2 + beta))
        # The covariance eigenvalues lam^2 must never exceed 1/(4 beta) for
        # beta > 0 (the maximum of s^2/(s^2+beta)^2 over s).
        if beta > 0:
            assert np.all(lam**2 <= 1.0 / (4 * beta) + 1e-12)
