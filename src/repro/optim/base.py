"""Objective-function abstraction shared by all optimizers.

Every supported model reduces to minimising an average negative
log-likelihood plus an optional regulariser (Equation (2) of the paper).
Optimizers only need the objective value, the gradient and — for Newton —
the Hessian, so the interface below is deliberately minimal.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.exceptions import OptimizationError


class Objective:
    """Interface expected by the optimizers.

    Subclasses must implement :meth:`value` and :meth:`gradient`;
    :meth:`hessian` is optional (only Newton's method requires it) and
    :meth:`value_and_gradient` may be overridden when the two can share
    work.  The quasi-Newton methods and their line search call only
    :meth:`value_and_gradient`.  A model's objective delegates it to
    ``ModelClassSpec.value_and_gradient``, where every built-in family runs
    its forward pass once and returns the bytes of ``value`` and
    ``gradient``; the gradient is a row-blocked GEMM, not a mean over
    per-example rows.
    """

    def value(self, theta: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self.value(theta), self.gradient(theta)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError(
            f"{type(self).__name__} does not provide an analytic Hessian"
        )


class FunctionObjective(Objective):
    """Adapter wrapping plain callables into an :class:`Objective`.

    Handy in tests and examples:

    >>> objective = FunctionObjective(lambda t: float(t @ t), lambda t: 2 * t)
    """

    def __init__(
        self,
        value_fn: Callable[[np.ndarray], float],
        gradient_fn: Callable[[np.ndarray], np.ndarray],
        hessian_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self._hessian_fn = hessian_fn

    def value(self, theta: np.ndarray) -> float:
        return float(self._value_fn(np.asarray(theta, dtype=np.float64)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return np.asarray(self._gradient_fn(np.asarray(theta, dtype=np.float64)), dtype=np.float64)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        if self._hessian_fn is None:
            raise OptimizationError("no Hessian function was provided")
        return np.asarray(self._hessian_fn(np.asarray(theta, dtype=np.float64)), dtype=np.float64)


def check_finite(name: str, array: np.ndarray | float, iteration: int) -> None:
    """Raise :class:`OptimizationError` if ``array`` contains NaN or inf."""
    if not np.all(np.isfinite(array)):
        raise OptimizationError(
            f"{name} became non-finite at iteration {iteration}; "
            "the objective is likely ill-conditioned or the step size too large"
        )
