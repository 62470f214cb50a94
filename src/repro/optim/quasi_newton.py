"""BFGS and L-BFGS: one quasi-Newton loop, two curvature memories.

The paper trains with BFGS for low-dimensional data (d < 100) and with its
memory-efficient alternative L-BFGS above (Section 5.1).  Both run the loop
in :meth:`_QuasiNewton.minimize`: a strong-Wolfe line search along
``-H g``, then a curvature update from the step ``s`` and the gradient
change ``y`` whenever ``sᵀy`` is positive enough to keep ``H`` positive
definite.  They differ only in how ``H`` is held:

* :class:`BFGS` keeps the dense inverse-Hessian estimate, O(d²) memory;
* :class:`LBFGS` keeps the last ``memory`` pairs ``(s, y)`` and applies
  ``H`` through the two-loop recursion, O(memory · d) per iteration.

Each ``minimize`` call builds its own curvature memory, so one optimizer
instance may fit on several threads at once.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.config import (
    GRADIENT_TOLERANCE,
    LBFGS_MEMORY,
    MAX_ITERATIONS,
)
from repro.exceptions import OptimizationError
from repro.optim.base import Objective, check_finite
from repro.optim.line_search import wolfe_line_search
from repro.optim.result import OptimizationResult


class _InverseHessian:
    """BFGS's curvature memory: the explicit inverse-Hessian estimate."""

    def __init__(self, dimension: int):
        self._dimension = dimension
        self._matrix = np.eye(dimension)

    def direction(self, gradient: np.ndarray) -> np.ndarray:
        return -(self._matrix @ gradient)

    def reset(self) -> None:
        self._matrix = np.eye(self._dimension)

    def update(self, s: np.ndarray, y: np.ndarray, rho: float) -> None:
        identity = np.eye(self._dimension)
        left = identity - rho * np.outer(s, y)
        right = identity - rho * np.outer(y, s)
        self._matrix = left @ self._matrix @ right + rho * np.outer(s, s)


class _TwoLoop:
    """L-BFGS's curvature memory: the last ``memory`` triples ``(s, y, ρ)``."""

    def __init__(self, memory: int):
        self._pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=memory)

    def direction(self, gradient: np.ndarray) -> np.ndarray:
        """``-H g`` by the standard two-loop recursion."""
        q = gradient.copy()
        alphas: list[float] = []
        for s, y, rho in reversed(self._pairs):
            alpha = rho * float(s @ q)
            alphas.append(alpha)
            q -= alpha * y
        if self._pairs:
            s_last, y_last, _ = self._pairs[-1]
            gamma = float(s_last @ y_last) / max(float(y_last @ y_last), 1e-300)
            q *= gamma
        for (s, y, rho), alpha in zip(self._pairs, reversed(alphas)):
            beta = rho * float(y @ q)
            q += (alpha - beta) * s
        return -q

    def reset(self) -> None:
        self._pairs.clear()

    def update(self, s: np.ndarray, y: np.ndarray, rho: float) -> None:
        self._pairs.append((s, y, rho))


class _QuasiNewton:
    """The shared loop; subclasses choose the curvature memory."""

    def __init__(
        self,
        max_iterations: int = MAX_ITERATIONS,
        gradient_tolerance: float = GRADIENT_TOLERANCE,
    ):
        self.max_iterations = max_iterations
        self.gradient_tolerance = gradient_tolerance

    def _curvature(self, dimension: int) -> _InverseHessian | _TwoLoop:
        raise NotImplementedError

    def minimize(self, objective: Objective, theta0: np.ndarray) -> OptimizationResult:
        theta = np.asarray(theta0, dtype=np.float64).copy()
        curvature = self._curvature(theta.shape[0])
        value, gradient = objective.value_and_gradient(theta)
        evaluations = 1
        history = [value]
        iteration = 0

        for iteration in range(1, self.max_iterations + 1):
            check_finite("objective value", value, iteration)
            check_finite("gradient", gradient, iteration)
            gradient_norm = float(np.max(np.abs(gradient)))
            if gradient_norm <= self.gradient_tolerance:
                return OptimizationResult(
                    theta=theta,
                    converged=True,
                    n_iterations=iteration - 1,
                    final_value=value,
                    gradient_norm=gradient_norm,
                    n_function_evaluations=evaluations,
                    loss_history=history,
                )

            direction = curvature.direction(gradient)
            if float(direction @ gradient) >= 0:
                # Reset to steepest descent if the approximation degenerated.
                curvature.reset()
                direction = -gradient

            search = wolfe_line_search(objective, theta, direction, value, gradient)
            evaluations += search.n_evaluations
            if search.gradient is None or search.step_size <= 0:
                break

            new_theta = theta + search.step_size * direction
            new_value, new_gradient = search.value, search.gradient

            s = new_theta - theta
            y = new_gradient - gradient
            sy = float(s @ y)
            if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
                curvature.update(s, y, 1.0 / sy)

            theta, value, gradient = new_theta, new_value, new_gradient
            history.append(value)

        gradient_norm = float(np.max(np.abs(gradient)))
        return OptimizationResult(
            theta=theta,
            converged=gradient_norm <= self.gradient_tolerance,
            n_iterations=iteration,
            final_value=value,
            gradient_norm=gradient_norm,
            n_function_evaluations=evaluations,
            loss_history=history,
        )


class BFGS(_QuasiNewton):
    """Quasi-Newton BFGS maintaining an explicit inverse-Hessian estimate."""

    def _curvature(self, dimension: int) -> _InverseHessian:
        return _InverseHessian(dimension)


class LBFGS(_QuasiNewton):
    """Limited-memory BFGS keeping the last ``memory`` curvature pairs."""

    def __init__(
        self,
        max_iterations: int = MAX_ITERATIONS,
        gradient_tolerance: float = GRADIENT_TOLERANCE,
        memory: int = LBFGS_MEMORY,
    ):
        if memory < 1:
            raise OptimizationError(f"L-BFGS memory must be at least 1, got {memory}")
        super().__init__(max_iterations, gradient_tolerance)
        self.memory = memory

    def _curvature(self, dimension: int) -> _TwoLoop:
        return _TwoLoop(self.memory)
