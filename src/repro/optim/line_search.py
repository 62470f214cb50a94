"""The strong-Wolfe line search of the quasi-Newton loop.

:func:`wolfe_line_search` is a bracketing search (Nocedal & Wright,
Algorithm 3.5/3.6).  BFGS and L-BFGS need its curvature condition so that
their updates keep the inverse-Hessian estimate positive definite.  Each
probe is one ``objective.value_and_gradient`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.optim.base import Objective

# Tuning of the search, fixed for every caller: the first trial step, the
# sufficient-decrease (Armijo) and curvature constants of the strong Wolfe
# conditions, the probe budget of each phase and the largest step tried.
INITIAL_STEP = 1.0
C1 = 1e-4
C2 = 0.9
MAX_STEPS = 25
MAX_STEP_SIZE = 1e8


@dataclass
class LineSearchResult:
    """Step size chosen by a line search along a fixed descent direction.

    ``gradient`` is the gradient at the accepted point.  ``None`` marks a
    failed search, and then ``step_size`` and ``value`` describe the last
    point it kept.
    """

    step_size: float
    value: float
    gradient: np.ndarray | None
    n_evaluations: int

    @property
    def success(self) -> bool:
        """Whether the search accepted a point (and so returned its gradient)."""
        return self.gradient is not None


def wolfe_line_search(
    objective: Objective,
    theta: np.ndarray,
    direction: np.ndarray,
    value: float,
    gradient: np.ndarray,
) -> LineSearchResult:
    """Strong-Wolfe line search (bracket + zoom).

    Returns the gradient at the accepted point so callers can reuse it for
    the next quasi-Newton update without an extra evaluation.  A failed
    search returns no gradient.
    """
    phi0 = value
    dphi0 = float(gradient @ direction)
    evaluations = 0

    def phi(alpha: float) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        candidate_value, candidate_gradient = objective.value_and_gradient(theta + alpha * direction)
        evaluations += 1
        return candidate_value, candidate_gradient

    if dphi0 >= 0:
        # Not a descent direction; signal failure so the caller can reset.
        return LineSearchResult(0.0, value, None, evaluations)

    def zoom(alpha_lo: float, alpha_hi: float, value_lo: float) -> LineSearchResult:
        nonlocal evaluations
        best = LineSearchResult(alpha_lo, value_lo, None, evaluations)
        for _ in range(MAX_STEPS):
            alpha = 0.5 * (alpha_lo + alpha_hi)
            candidate_value, candidate_gradient = phi(alpha)
            dphi = float(candidate_gradient @ direction)
            if (not np.isfinite(candidate_value)) or candidate_value > phi0 + C1 * alpha * dphi0 or candidate_value >= value_lo:
                alpha_hi = alpha
            else:
                if abs(dphi) <= -C2 * dphi0:
                    return LineSearchResult(alpha, candidate_value, candidate_gradient, evaluations)
                if dphi * (alpha_hi - alpha_lo) >= 0:
                    alpha_hi = alpha_lo
                alpha_lo = alpha
                value_lo = candidate_value
                best = LineSearchResult(alpha, candidate_value, candidate_gradient, evaluations)
            if abs(alpha_hi - alpha_lo) < 1e-14:
                break
        # ``best`` may predate the last evaluations; report all of them.
        return replace(best, n_evaluations=evaluations)

    previous_alpha = 0.0
    previous_value = phi0
    alpha = INITIAL_STEP
    for iteration in range(MAX_STEPS):
        candidate_value, candidate_gradient = phi(alpha)
        if (not np.isfinite(candidate_value)) or candidate_value > phi0 + C1 * alpha * dphi0 or (
            iteration > 0 and candidate_value >= previous_value
        ):
            return zoom(previous_alpha, alpha, previous_value)
        dphi = float(candidate_gradient @ direction)
        if abs(dphi) <= -C2 * dphi0:
            return LineSearchResult(alpha, candidate_value, candidate_gradient, evaluations)
        if dphi >= 0:
            return zoom(alpha, previous_alpha, candidate_value)
        previous_alpha = alpha
        previous_value = candidate_value
        alpha = min(2.0 * alpha, MAX_STEP_SIZE)

    # Out of steps: report the last evaluated point as a failure.
    return LineSearchResult(previous_alpha, previous_value, None, evaluations)
