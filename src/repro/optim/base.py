"""Objective-function abstraction shared by the optimizers.

Every supported model reduces to minimising an average negative
log-likelihood plus an optional regulariser (Equation (2) of the paper).
The quasi-Newton loop and its line search need the value and the gradient
at each point they probe, so the interface is that one call.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.exceptions import OptimizationError


class Objective:
    """Interface expected by the optimizers.

    Subclasses implement :meth:`value_and_gradient`, the one method the
    quasi-Newton loop and :func:`~repro.optim.line_search.wolfe_line_search`
    call.  A model's objective delegates it to
    ``ModelClassSpec.value_and_gradient``, where every built-in family runs
    its forward pass once and returns the bytes of ``loss`` and
    ``gradient``; the gradient is a row-blocked GEMM, not a mean over
    per-example rows.
    """

    def value_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError


class FunctionObjective(Objective):
    """Adapter wrapping plain callables into an :class:`Objective`.

    Handy in tests and examples:

    >>> objective = FunctionObjective(lambda t: float(t @ t), lambda t: 2 * t)
    """

    def __init__(
        self,
        value_fn: Callable[[np.ndarray], float],
        gradient_fn: Callable[[np.ndarray], np.ndarray],
    ):
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn

    def value(self, theta: np.ndarray) -> float:
        return float(self._value_fn(np.asarray(theta, dtype=np.float64)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return np.asarray(self._gradient_fn(np.asarray(theta, dtype=np.float64)), dtype=np.float64)

    def value_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self.value(theta), self.gradient(theta)


def check_finite(name: str, array: np.ndarray | float, iteration: int) -> None:
    """Raise :class:`OptimizationError` if ``array`` contains NaN or inf."""
    if not np.all(np.isfinite(array)):
        raise OptimizationError(
            f"{name} became non-finite at iteration {iteration}; "
            "the objective is likely ill-conditioned or the step size too large"
        )
