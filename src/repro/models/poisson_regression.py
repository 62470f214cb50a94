"""Poisson regression model class specification.

The paper lists Poisson regression among the generalized linear models that
BlinkML's MLE abstraction covers (Section 1 and 2.2); this module provides
it so the library exercises a GLM with a non-Gaussian, non-Bernoulli
likelihood.

The model is ``y_i ~ Poisson(exp(θᵀx_i))``.  Its L2-regularised negative
log-likelihood (dropping the θ-independent ``log y!`` term) is

    f_n(θ) = (1/n) Σ [ exp(θᵀx_i) − y_i θᵀx_i ] + (β/2) ‖θ‖²

with per-example gradient ``q(θ; x_i, y_i) = (exp(θᵀx_i) − y_i) x_i`` and
closed-form Hessian ``H(θ) = (1/n) Σ exp(θᵀx_i) x_i x_iᵀ + βI`` — so, like
linear and logistic regression, Poisson regression supports all three
statistics-computation methods.

The model-difference metric follows the regression convention of
Appendix C: the RMS difference between the two models' predicted rates,
normalised by the standard deviation of the holdout counts.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ModelSpecError
from repro.models.base import (
    DiffAccumulator,
    GeneralizedLinearSpec,
    holdout_label_scale,
)

#: linear predictors are clipped to this magnitude before exponentiation so a
#: wild parameter probe cannot overflow ``exp``.
_MAX_LOG_RATE = 30.0


def _log_rates(z: np.ndarray) -> np.ndarray:
    """Linear predictors clipped to ``±_MAX_LOG_RATE``: the log of each rate."""
    return np.clip(z, -_MAX_LOG_RATE, _MAX_LOG_RATE)


class PoissonRegressionSpec(GeneralizedLinearSpec):
    """L2-regularised Poisson (log-linear) regression for count targets."""

    task = "regression"
    name = "poisson"

    def __init__(self, regularization: float = 1e-3, normalize_difference: bool = True):
        super().__init__(regularization=regularization)
        self.normalize_difference = normalize_difference

    # ------------------------------------------------------------------
    # Parameters and validation
    # ------------------------------------------------------------------
    def n_parameters(self, dataset: Dataset) -> int:
        return dataset.n_features

    def validate_dataset(self, dataset: Dataset) -> None:
        super().validate_dataset(dataset)
        if np.any(dataset.y < 0):
            raise ModelSpecError("Poisson regression expects non-negative count labels")

    # ------------------------------------------------------------------
    # Objective pieces
    # ------------------------------------------------------------------
    def _rates(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.exp(_log_rates(X @ theta))

    def _data_term(self, z: np.ndarray, y: np.ndarray) -> float:
        log_rates = _log_rates(z)
        return float(np.mean(np.exp(log_rates) - y * log_rates))

    def _slopes(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.exp(_log_rates(z)) - y

    def hessian(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        rates = self._rates(theta, dataset.X)
        n, d = dataset.X.shape
        weighted = dataset.X * rates[:, None]
        return dataset.X.T @ weighted / n + self.regularization * np.eye(d)

    # ------------------------------------------------------------------
    # Prediction and diff
    # ------------------------------------------------------------------
    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Predicted Poisson rates ``exp(θᵀx)`` for each row of ``X``."""
        return self._rates(np.asarray(theta, dtype=np.float64), np.asarray(X, dtype=np.float64))

    def predict_many(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        Thetas = self._as_parameter_batch(Thetas)
        # All k log-rate vectors in one GEMM, then a single clipped exp.
        return np.exp(_log_rates(Thetas @ np.asarray(X, dtype=np.float64).T))

    def _difference_scale(self, dataset: Dataset) -> float:
        if not self.normalize_difference:
            return 1.0
        return holdout_label_scale(dataset, "Poisson")

    def prediction_difference(
        self, theta_a: np.ndarray, theta_b: np.ndarray, dataset: Dataset
    ) -> float:
        rates_a = self.predict(theta_a, dataset.X)
        rates_b = self.predict(theta_b, dataset.X)
        rms = float(np.sqrt(np.mean((rates_a - rates_b) ** 2)))
        return rms / self._difference_scale(dataset)

    def diff_accumulator(
        self, theta_ref: np.ndarray, Thetas: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        """Streaming RMS rate gap: per-block squared-error sums."""
        return self._rms_accumulator(theta_ref, Thetas, self._difference_scale(dataset))

    def pairwise_diff_accumulator(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        # The rate map is nonlinear, so both sides of every pair are
        # evaluated per block — still one stacked GEMM per block.
        return self._pairwise_rms_accumulator(
            Thetas_a, Thetas_b, self._difference_scale(dataset)
        )

    def describe(self) -> dict:
        description = super().describe()
        description["normalize_difference"] = self.normalize_difference
        return description
