"""Hypothesis property tests for the optimisation substrate.

For randomly generated strictly convex quadratics the minimiser is known in
closed form, so BFGS and L-BFGS can be checked against it; additional
invariants cover scale equivariance and the L-BFGS memory parameter.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import BFGS, LBFGS, FunctionObjective


def random_quadratic(seed: int, dimension: int, condition: float):
    """Return (objective, minimiser) for a random strictly convex quadratic."""
    rng = np.random.default_rng(seed)
    eigenvalues = np.linspace(1.0, condition, dimension)
    basis, _ = np.linalg.qr(rng.normal(size=(dimension, dimension)))
    A = basis @ np.diag(eigenvalues) @ basis.T
    target = rng.normal(size=dimension)

    def value(theta):
        diff = theta - target
        return 0.5 * float(diff @ A @ diff)

    def gradient(theta):
        return A @ (theta - target)

    return FunctionObjective(value, gradient), target


class TestQuadraticRecovery:
    @given(
        seed=st.integers(0, 10_000),
        dimension=st.integers(2, 8),
        condition=st.floats(1.0, 100.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_bfgs_finds_known_minimiser(self, seed, dimension, condition):
        objective, target = random_quadratic(seed, dimension, condition)
        result = BFGS(max_iterations=500, gradient_tolerance=1e-9).minimize(
            objective, np.zeros(dimension)
        )
        np.testing.assert_allclose(result.theta, target, atol=1e-4)

    @given(
        seed=st.integers(0, 10_000),
        dimension=st.integers(2, 8),
        memory=st.integers(2, 20),
    )
    @settings(max_examples=25, deadline=None)
    def test_lbfgs_insensitive_to_memory(self, seed, dimension, memory):
        objective, target = random_quadratic(seed, dimension, 20.0)
        result = LBFGS(memory=memory, gradient_tolerance=1e-9).minimize(
            objective, np.zeros(dimension)
        )
        np.testing.assert_allclose(result.theta, target, atol=1e-4)

    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_minimiser_invariant_to_objective_scaling(self, seed, scale):
        objective, target = random_quadratic(seed, 4, 10.0)
        scaled = FunctionObjective(
            lambda t: scale * objective.value(t),
            lambda t: scale * objective.gradient(t),
        )
        result = LBFGS(gradient_tolerance=1e-9).minimize(scaled, np.zeros(4))
        np.testing.assert_allclose(result.theta, target, atol=1e-4)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_final_value_not_worse_than_start(self, seed):
        objective, _ = random_quadratic(seed, 5, 30.0)
        start = np.full(5, 2.0)
        result = BFGS().minimize(objective, start)
        assert result.final_value <= objective.value(start) + 1e-12
