"""Optimisation substrate: the "Model Trainer" component of BlinkML.

The paper trains its convex MLE objectives with BFGS for low-dimensional
data and L-BFGS for high-dimensional data (Section 5.1).  This subpackage
implements both from scratch on NumPy, as one quasi-Newton loop with two
curvature memories:

* :mod:`repro.optim.line_search` — the strong-Wolfe line search;
* :mod:`repro.optim.quasi_newton` — the loop, :class:`BFGS` (dense
  inverse Hessian) and :class:`LBFGS` (two-loop recursion over the last
  ``memory`` pairs);
* :func:`repro.optim.minimize` — the entry point every fit calls, which
  applies the paper's d < 100 → BFGS, otherwise → L-BFGS rule.
"""

from repro.optim.base import Objective, FunctionObjective
from repro.optim.result import OptimizationResult
from repro.optim.line_search import wolfe_line_search
from repro.optim.quasi_newton import BFGS, LBFGS
from repro.optim.driver import minimize, optimizer_for_dimension

__all__ = [
    "Objective",
    "FunctionObjective",
    "OptimizationResult",
    "wolfe_line_search",
    "BFGS",
    "LBFGS",
    "minimize",
    "optimizer_for_dimension",
]
