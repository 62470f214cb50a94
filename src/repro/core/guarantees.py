"""Probabilistic guarantee helpers: Lemma 1 and Lemma 2 of the paper.

* **Lemma 2** converts the Monte-Carlo estimate of
  ``Pr[v(m_n) ≤ ε]`` over k sampled full-model parameters into a
  conservative statement that accounts for the sampling error of the
  estimate itself (via Hoeffding's inequality).  The required empirical
  quantile level is ``(1 − δ)/0.95 + sqrt(log 0.95 / (−2k))``.

* **Lemma 1** converts the model-difference guarantee into a bound on the
  *full* model's generalisation error given the approximate model's
  observed generalisation error: ``ε_N ≤ ε_g + ε − ε_g·ε``.

Note on the quantile level: with the paper's default δ = 0.05 the level
``(1 − δ)/0.95`` is exactly 1, and the Hoeffding slack pushes it above 1.
A level above 1 cannot be met by any finite sample, so — as any practical
implementation must — we cap the level at 1.0, which corresponds to taking
the maximum of the sampled differences (the most conservative choice the
empirical distribution supports).  The cap is made explicit here so the
behaviour is easy to audit and test.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import CONFIDENCE_SLACK
from repro.exceptions import ContractError


def conservative_quantile_level(delta: float, n_samples: int) -> float:
    """The empirical-quantile level required by Lemma 2, capped at 1.

    Parameters
    ----------
    delta:
        Contract violation probability δ.
    n_samples:
        Number k of i.i.d. parameter samples used in the Monte-Carlo
        estimate.
    """
    if not 0.0 < delta < 1.0:
        raise ContractError(f"delta must lie in (0, 1), got {delta}")
    if n_samples < 1:
        raise ContractError("at least one parameter sample is required")
    hoeffding = math.sqrt(math.log(CONFIDENCE_SLACK) / (-2.0 * n_samples))
    level = (1.0 - delta) / CONFIDENCE_SLACK + hoeffding
    return min(level, 1.0)


def conservative_upper_bound(
    values: np.ndarray,
    delta: float,
    assume_sorted: bool = False,
) -> float:
    """Return the conservative ε for observed model differences ``values``.

    This is the Model Accuracy Estimator's final step (Section 3.3): find
    the smallest ε such that the required fraction of sampled differences
    falls below it.  With the level capped at 1 this is the maximum of the
    sampled values.

    ``assume_sorted`` skips the internal sort; the estimation session caches
    ascending difference vectors per (θ, n, N) and answers every (ε, δ)
    contract against them by pure quantile lookup.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ContractError("values must be a non-empty 1-D array")
    level = conservative_quantile_level(delta, values.size)
    if level >= 1.0:
        return float(values[-1] if assume_sorted else values.max())
    sorted_values = values if assume_sorted else np.sort(values)
    # Smallest value whose empirical CDF reaches the level ("higher"
    # interpolation keeps the bound conservative).
    index = int(math.ceil(level * values.size)) - 1
    index = min(max(index, 0), values.size - 1)
    return float(sorted_values[index])


def satisfies_probability_threshold(
    values: np.ndarray,
    epsilon: float,
    delta: float,
) -> bool:
    """Check whether the sampled differences certify ``Pr[v ≤ ε] ≥ 1 − δ``.

    Used by the Sample Size Estimator (Equation (8) with the Lemma 2
    correction): the empirical fraction of sampled differences below ε must
    reach the conservative level.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ContractError("values must be non-empty")
    level = conservative_quantile_level(delta, values.size)
    fraction = float(np.mean(values <= epsilon))
    return fraction >= level


def generalization_error_bound(approx_generalization_error: float, epsilon: float) -> float:
    """Lemma 1: bound on the full model's generalisation error.

    Given the approximate model's generalisation error ε_g and the contract
    bound ε on the prediction difference, the full model's generalisation
    error is at most ``ε_g + ε − ε_g·ε`` with probability at least 1 − δ.
    """
    if not 0.0 <= approx_generalization_error <= 1.0:
        raise ContractError("generalisation error must lie in [0, 1]")
    if not 0.0 <= epsilon <= 1.0:
        raise ContractError("epsilon must lie in [0, 1]")
    return approx_generalization_error + epsilon - approx_generalization_error * epsilon
