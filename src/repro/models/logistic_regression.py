"""Logistic regression (LR) model class specification.

Binary classification with labels in {0, 1}.  The L2-regularised objective
(Appendix A of the paper):

    f_n(θ) = −(1/n) Σ [ t_i log σ(θᵀx_i) + (1 − t_i) log(1 − σ(θᵀx_i)) ]
             + (β/2) ‖θ‖²

with per-example gradient ``q(θ; x_i, t_i) = (σ(θᵀx_i) − t_i) x_i`` and the
closed-form Hessian ``H(θ) = (1/n) XᵀQX + βI`` where Q is diagonal with
entries ``σ(θᵀx_i)(1 − σ(θᵀx_i))`` — the exact expression quoted for the
ClosedForm method in Section 3.4.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ModelSpecError
from repro.models.base import DiffAccumulator, ModelClassSpec


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def log_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable ``log σ(z) = −log(1 + e^{−z})``."""
    z = np.asarray(z, dtype=np.float64)
    return -np.logaddexp(0.0, -z)


class LogisticRegressionSpec(ModelClassSpec):
    """L2-regularised binary logistic regression."""

    task = "binary"
    name = "lr"

    def __init__(self, regularization: float = 1e-3):
        super().__init__(regularization=regularization)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def n_parameters(self, dataset: Dataset) -> int:
        return dataset.n_features

    def validate_dataset(self, dataset: Dataset) -> None:
        super().validate_dataset(dataset)
        labels = np.unique(dataset.y)
        if not np.all(np.isin(labels, (0, 1))):
            raise ModelSpecError(
                f"logistic regression expects labels in {{0, 1}}, got {labels[:10]}"
            )

    # ------------------------------------------------------------------
    # Objective pieces
    # ------------------------------------------------------------------
    def loss(self, theta: np.ndarray, dataset: Dataset) -> float:
        self.validate_dataset(dataset)
        z = dataset.X @ theta
        t = dataset.y.astype(np.float64)
        # −[t log σ(z) + (1 − t) log σ(−z)] written with stable log-sigmoids.
        log_likelihood = t * log_sigmoid(z) + (1.0 - t) * log_sigmoid(-z)
        data_term = -float(np.mean(log_likelihood))
        reg_term = 0.5 * self.regularization * float(theta @ theta)
        return data_term + reg_term

    def per_example_gradients(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        self.validate_dataset(dataset)
        z = dataset.X @ theta
        t = dataset.y.astype(np.float64)
        return (sigmoid(z) - t)[:, None] * dataset.X

    def hessian(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        z = dataset.X @ theta
        weights = sigmoid(z) * (1.0 - sigmoid(z))
        n, d = dataset.X.shape
        weighted = dataset.X * weights[:, None]
        return dataset.X.T @ weighted / n + self.regularization * np.eye(d)

    # ------------------------------------------------------------------
    # Prediction and diff
    # ------------------------------------------------------------------
    def predict_proba(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Positive-class probabilities ``σ(θᵀx)``."""
        return sigmoid(np.asarray(X, dtype=np.float64) @ np.asarray(theta, dtype=np.float64))

    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(theta, X) >= 0.5).astype(np.int64)

    def predict_proba_many(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Positive-class probabilities for a ``(k, d)`` parameter batch.

        All k logit vectors come out of a single ``Thetas @ Xᵀ`` GEMM.
        """
        Thetas = self._as_parameter_batch(Thetas)
        return sigmoid(Thetas @ np.asarray(X, dtype=np.float64).T)

    def predict_many(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba_many(Thetas, X) >= 0.5).astype(np.int64)

    def prediction_difference(
        self, theta_a: np.ndarray, theta_b: np.ndarray, dataset: Dataset
    ) -> float:
        predictions_a = self.predict(theta_a, dataset.X)
        predictions_b = self.predict(theta_b, dataset.X)
        return float(np.mean(predictions_a != predictions_b))

    def diff_accumulator(
        self, theta_ref: np.ndarray, Thetas: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        """Streaming disagreement: integer mismatch counts per holdout block.

        Counts are exact, so the result is bitwise identical to the scalar
        ``prediction_difference`` loop regardless of block size.
        """
        del dataset  # disagreement needs no global holdout context
        return self._disagreement_accumulator(theta_ref, Thetas)

    def pairwise_diff_accumulator(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        del dataset
        return self._pairwise_disagreement_accumulator(Thetas_a, Thetas_b)
