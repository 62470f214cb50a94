"""The paper's optimizer rule and the one entry point every fit goes through.

Section 5.1: "BlinkML is configured to use the BFGS optimization algorithm
for low-dimensional datasets (d < 100) and to use a memory-efficient
alternative, called L-BFGS, for high-dimensional datasets (d >= 100)."
:func:`optimizer_for_dimension` encodes exactly that rule, and
:func:`minimize` applies it; the Model Trainer (``ModelClassSpec.fit``)
and the rest of the library call :func:`minimize`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.config import BFGS_DIMENSION_THRESHOLD
from repro.optim.base import Objective
from repro.optim.quasi_newton import BFGS, LBFGS
from repro.optim.result import OptimizationResult


def optimizer_for_dimension(dimension: int, **kwargs: Any) -> BFGS | LBFGS:
    """Return a BFGS instance for small d and an L-BFGS instance otherwise."""
    if dimension < BFGS_DIMENSION_THRESHOLD:
        return BFGS(**kwargs)
    return LBFGS(**kwargs)


def minimize(objective: Objective, theta0: np.ndarray, **kwargs: Any) -> OptimizationResult:
    """Minimise ``objective`` from ``theta0`` with the paper's optimizer for its d.

    ``kwargs`` go to the optimizer's constructor: ``max_iterations``,
    ``gradient_tolerance`` and, for L-BFGS (d >= 100), ``memory``.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    return optimizer_for_dimension(theta0.shape[0], **kwargs).minimize(objective, theta0)
