"""Tests for BFGS, L-BFGS and the driver that applies the paper's rule.

Both curvature memories of the one quasi-Newton loop are exercised on the
same battery of convex problems (with known solutions) plus the Rosenbrock
function.
"""

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optim import (
    BFGS,
    LBFGS,
    FunctionObjective,
    minimize,
    optimizer_for_dimension,
)
from repro.optim.base import check_finite


def make_quadratic(d=5, seed=0, condition=10.0):
    """Random strictly convex quadratic with a known minimiser."""
    rng = np.random.default_rng(seed)
    eigenvalues = np.linspace(1.0, condition, d)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    A = basis @ np.diag(eigenvalues) @ basis.T
    target = rng.normal(size=d)

    def value(theta):
        diff = theta - target
        return 0.5 * float(diff @ A @ diff)

    def gradient(theta):
        return A @ (theta - target)

    return FunctionObjective(value, gradient), target


def rosenbrock_objective():
    def value(theta):
        return float((1 - theta[0]) ** 2 + 100 * (theta[1] - theta[0] ** 2) ** 2)

    def gradient(theta):
        g0 = -2 * (1 - theta[0]) - 400 * theta[0] * (theta[1] - theta[0] ** 2)
        g1 = 200 * (theta[1] - theta[0] ** 2)
        return np.array([g0, g1])

    return FunctionObjective(value, gradient)


OPTIMIZERS = {
    "bfgs": BFGS(gradient_tolerance=1e-8),
    "lbfgs": LBFGS(gradient_tolerance=1e-8),
}


class TestConvexQuadratic:
    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_reaches_known_minimiser(self, name):
        objective, target = make_quadratic(d=6, seed=1)
        result = OPTIMIZERS[name].minimize(objective, np.zeros(6))
        assert result.converged
        np.testing.assert_allclose(result.theta, target, atol=1e-4)

    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_loss_history_monotone_nonincreasing(self, name):
        objective, _ = make_quadratic(d=4, seed=2)
        result = OPTIMIZERS[name].minimize(objective, np.ones(4) * 3)
        history = np.array(result.loss_history)
        assert np.all(np.diff(history) <= 1e-10)

    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_starting_at_optimum_converges_immediately(self, name):
        objective, target = make_quadratic(d=3, seed=3)
        result = OPTIMIZERS[name].minimize(objective, target)
        assert result.converged
        assert result.n_iterations == 0

    def test_iteration_counts_are_reported(self):
        objective, _ = make_quadratic(d=5, seed=4)
        result = BFGS().minimize(objective, np.zeros(5))
        assert result.n_iterations >= 1
        assert result.n_function_evaluations >= result.n_iterations


class TestRosenbrock:
    @pytest.mark.parametrize("name", ["bfgs", "lbfgs", "newton_free"])
    def test_quasi_newton_solves_rosenbrock(self, name):
        objective = rosenbrock_objective()
        if name == "newton_free":
            optimizer = BFGS(max_iterations=2000, gradient_tolerance=1e-6)
        else:
            optimizer = OPTIMIZERS[name]
        result = optimizer.minimize(objective, np.array([-1.2, 1.0]))
        np.testing.assert_allclose(result.theta, [1.0, 1.0], atol=1e-3)


class TestIllConditionedAndEdgeCases:
    def test_bfgs_handles_ill_conditioning(self):
        objective, target = make_quadratic(d=8, seed=5, condition=1e4)
        result = BFGS(max_iterations=2000).minimize(objective, np.zeros(8))
        np.testing.assert_allclose(result.theta, target, atol=1e-2)

    def test_lbfgs_memory_parameter(self):
        objective, target = make_quadratic(d=20, seed=6)
        result = LBFGS(memory=3).minimize(objective, np.zeros(20))
        np.testing.assert_allclose(result.theta, target, atol=1e-3)

    @pytest.mark.parametrize("memory", [0, -1])
    def test_lbfgs_rejects_memory_below_one(self, memory):
        # Memory 0 would silently run steepest descent, and a negative one
        # would fail inside minimize with deque's bare ValueError.
        with pytest.raises(OptimizationError):
            LBFGS(memory=memory)

    @pytest.mark.parametrize("optimizer", [BFGS, LBFGS])
    def test_non_finite_objective_raises(self, optimizer):
        objective = FunctionObjective(lambda t: float("nan"), lambda t: t)
        with pytest.raises(OptimizationError):
            optimizer().minimize(objective, np.zeros(2))

    def test_check_finite_helper(self):
        with pytest.raises(OptimizationError):
            check_finite("gradient", np.array([1.0, np.inf]), 3)
        check_finite("gradient", np.array([1.0, 2.0]), 3)  # no error

    def test_result_summary_mentions_convergence(self):
        objective, _ = make_quadratic(d=3, seed=7)
        result = BFGS().minimize(objective, np.zeros(3))
        assert "converged" in result.summary()


class TestDriver:
    def test_dimension_rule(self):
        assert isinstance(optimizer_for_dimension(10), BFGS)
        assert isinstance(optimizer_for_dimension(99), BFGS)
        assert isinstance(optimizer_for_dimension(100), LBFGS)
        assert isinstance(optimizer_for_dimension(5000), LBFGS)

    def test_minimize_default_follows_dimension_rule(self):
        objective, target = make_quadratic(d=4, seed=9)
        result = minimize(objective, np.zeros(4))
        np.testing.assert_allclose(result.theta, target, atol=1e-4)
