"""Tests for the strong-Wolfe line search."""

import numpy as np

from repro.optim.base import FunctionObjective
from repro.optim.driver import minimize
from repro.optim.line_search import C1, C2, wolfe_line_search
from repro.optim.quasi_newton import LBFGS


def quadratic_objective(center=None, scale=1.0):
    center = np.zeros(2) if center is None else np.asarray(center, dtype=float)

    def value(theta):
        diff = theta - center
        return 0.5 * scale * float(diff @ diff)

    def gradient(theta):
        return scale * (theta - center)

    return FunctionObjective(value, gradient)


class TestWolfe:
    def test_wolfe_conditions_hold_on_quadratic(self):
        objective = quadratic_objective(scale=3.0)
        theta = np.array([5.0, -7.0])
        value, gradient = objective.value_and_gradient(theta)
        direction = -gradient
        result = wolfe_line_search(objective, theta, direction, value, gradient)
        assert result.success
        alpha = result.step_size
        new_value, new_gradient = objective.value_and_gradient(theta + alpha * direction)
        dphi0 = float(gradient @ direction)
        # Armijo (sufficient decrease) condition.
        assert new_value <= value + C1 * alpha * dphi0 + 1e-12
        # Curvature condition.
        assert abs(float(new_gradient @ direction)) <= C2 * abs(dphi0) + 1e-12

    def test_returns_gradient_at_accepted_point(self):
        objective = quadratic_objective()
        theta = np.array([2.0, 2.0])
        value, gradient = objective.value_and_gradient(theta)
        result = wolfe_line_search(objective, theta, -gradient, value, gradient)
        assert result.gradient is not None
        expected = objective.gradient(theta + result.step_size * -gradient)
        np.testing.assert_allclose(result.gradient, expected)

    def test_non_descent_direction_signals_failure(self):
        objective = quadratic_objective()
        theta = np.array([1.0, 1.0])
        value, gradient = objective.value_and_gradient(theta)
        result = wolfe_line_search(objective, theta, gradient, value, gradient)
        assert not result.success
        assert result.step_size == 0.0

    def test_rosenbrock_direction(self):
        # A harder non-quadratic objective: the search must still find a
        # step satisfying sufficient decrease along the negative gradient.
        def rosenbrock(theta):
            return float((1 - theta[0]) ** 2 + 100 * (theta[1] - theta[0] ** 2) ** 2)

        def rosenbrock_gradient(theta):
            g0 = -2 * (1 - theta[0]) - 400 * theta[0] * (theta[1] - theta[0] ** 2)
            g1 = 200 * (theta[1] - theta[0] ** 2)
            return np.array([g0, g1])

        objective = FunctionObjective(rosenbrock, rosenbrock_gradient)
        theta = np.array([-1.2, 1.0])
        value, gradient = objective.value_and_gradient(theta)
        result = wolfe_line_search(objective, theta, -gradient, value, gradient)
        assert result.success
        assert result.value < value

    def test_zoom_counts_evaluations_after_its_best_point(self):
        # Along |t − 0.3| from t = 1, zoom keeps bisecting past the last
        # point it accepted; every one of those calls is an evaluation.
        calls = []

        def value(theta):
            calls.append(float(theta[0]))
            return abs(float(theta[0]) - 0.3)

        objective = FunctionObjective(value, lambda theta: np.sign(theta - 0.3))
        theta = np.array([1.0])
        value0, gradient = objective.value_and_gradient(theta)
        calls.clear()
        result = wolfe_line_search(objective, theta, -gradient, value0, gradient)
        assert result.success
        assert result.n_evaluations == len(calls) == 26

        # d = 1, so minimize runs BFGS; L-BFGS shares its loop and count.
        calls.clear()
        optimum = minimize(objective, theta)
        assert optimum.n_function_evaluations == len(calls)

        calls.clear()
        optimum = LBFGS().minimize(objective, theta)
        assert optimum.n_function_evaluations == len(calls)
