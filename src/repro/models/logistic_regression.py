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
from repro.models.base import DiffAccumulator, GeneralizedLinearSpec


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    ``exp`` only ever sees ``−|z| ≤ 0``, so it cannot overflow: σ(z) is
    ``1 / (1 + e^{−z})`` for ``z ≥ 0`` and ``e^{z} / (1 + e^{z})`` otherwise.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    denominator = 1.0 + e
    return np.where(z >= 0, 1.0 / denominator, e / denominator)


def log_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable ``log σ(z) = −log(1 + e^{−z})``."""
    z = np.asarray(z, dtype=np.float64)
    return -np.logaddexp(0.0, -z)


class LogisticRegressionSpec(GeneralizedLinearSpec):
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
        y = dataset.y
        # One O(n) pass; the O(n log n) np.unique only builds the message.
        if np.any((y != 0) & (y != 1)):
            raise ModelSpecError(
                f"logistic regression expects labels in {{0, 1}}, got {np.unique(y)[:10]}"
            )

    # ------------------------------------------------------------------
    # Objective pieces
    # ------------------------------------------------------------------
    def _data_term(self, z: np.ndarray, y: np.ndarray) -> float:
        # t log σ(z) + (1 − t) log σ(−z) has one non-zero term per row, the
        # log-sigmoid of the label-signed logit.
        return -float(np.mean(log_sigmoid(np.where(y == 1, z, -z))))

    def _slopes(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return sigmoid(z) - y.astype(np.float64)

    def hessian(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        probabilities = sigmoid(dataset.X @ theta)
        weights = probabilities * (1.0 - probabilities)
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
        """Class 1 where the logit ``θᵀx ≥ 0``, i.e. where ``σ(θᵀx) ≥ 0.5``.

        Deciding on the logit's sign skips σ, and is exact where σ is not:
        for logits in about (−4.5e‑17, 0) ``exp`` rounds to 1 and σ to 0.5.
        """
        X = np.asarray(X, dtype=np.float64)
        return (X @ np.asarray(theta, dtype=np.float64) >= 0).astype(np.int64)

    def _batch_logits(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The ``(k, n)`` logits of a ``(k, d)`` batch: one ``Thetas @ Xᵀ`` GEMM."""
        Thetas = self._as_parameter_batch(Thetas)
        return Thetas @ np.asarray(X, dtype=np.float64).T

    def predict_many(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """:meth:`predict` for a ``(k, d)`` batch."""
        # The (k, n) logits stay a temporary, so their buffer is freed before
        # the int64 labels are allocated and is reused for them instead of
        # page-faulting in a fresh one.
        return (self._batch_logits(Thetas, X) >= 0).astype(np.int64)

    def _decisions(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """:meth:`predict_many`'s labels as the ``≥ 0`` booleans, never widened."""
        return self._batch_logits(Thetas, X) >= 0

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
