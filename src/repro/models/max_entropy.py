"""Max-entropy classifier (ME): multinomial / softmax logistic regression.

Multiclass classification with labels in {0, …, K−1}.  Parameters form a
K-by-d matrix Θ that is flattened to a vector when exchanged with the rest
of the system (Appendix A notes that BlinkML internally passes flattened
parameters).  The L2-regularised objective is

    f_n(Θ) = −(1/n) Σ log softmax(Θ x_i)[y_i] + (β/2) ‖Θ‖²_F

with per-example gradient (for class k):

    q_k(Θ; x_i, y_i) = (softmax(Θ x_i)[k] − 1[y_i = k]) x_i

The closed-form Hessian is a Kd-by-Kd block matrix
``H[(k,l)] = (1/n) Σ p_ik (1[k=l] − p_il) x_i x_iᵀ + β 1[k=l] I``; it is
provided for completeness (ClosedForm) but only used for small K·d.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ModelSpecError
from repro.models.base import DiffAccumulator, ModelClassSpec, transposed_row_sum


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-subtraction for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class MaxEntropySpec(ModelClassSpec):
    """L2-regularised max-entropy (multiclass softmax) classifier.

    Parameters
    ----------
    n_classes:
        Number of classes K.  If ``None`` it is inferred from the training
        labels the first time the spec sees a dataset.
    regularization:
        L2 coefficient β.
    """

    task = "multiclass"
    name = "me"

    def __init__(self, n_classes: int | None = None, regularization: float = 1e-3):
        super().__init__(regularization=regularization)
        if n_classes is not None and n_classes < 2:
            raise ModelSpecError("a classifier needs at least two classes")
        self.n_classes = n_classes

    # ------------------------------------------------------------------
    # Parameter bookkeeping
    # ------------------------------------------------------------------
    def _resolve_classes(self, dataset: Dataset) -> int:
        if self.n_classes is not None:
            return self.n_classes
        if dataset.y is None:
            raise ModelSpecError("cannot infer class count from an unlabelled dataset")
        self.validate_dataset(dataset)
        inferred = int(dataset.y.max()) + 1
        self.n_classes = max(inferred, 2)
        return self.n_classes

    def n_parameters(self, dataset: Dataset) -> int:
        return self._resolve_classes(dataset) * dataset.n_features

    def reshape(self, theta: np.ndarray, n_features: int) -> np.ndarray:
        """View the flat parameter vector as the (K, d) matrix Θ."""
        if self.n_classes is None:
            raise ModelSpecError("class count unknown; call n_parameters or fit first")
        theta = np.asarray(theta, dtype=np.float64)
        expected = self.n_classes * n_features
        if theta.shape[0] != expected:
            raise ModelSpecError(
                f"parameter vector has length {theta.shape[0]}, expected {expected}"
            )
        return theta.reshape(self.n_classes, n_features)

    def validate_dataset(self, dataset: Dataset) -> None:
        super().validate_dataset(dataset)
        y = dataset.y
        if y is None:
            return
        # Integer labels skip the integrality pass: the fit path validates on
        # every forward pass.
        integral = y.dtype.kind in "biu" or np.all(np.isfinite(y) & (np.trunc(y) == y))
        if not integral or np.any(y < 0):
            raise ModelSpecError("class labels must be non-negative integers")
        if self.n_classes is not None and y.max() >= self.n_classes:
            raise ModelSpecError(
                f"label {int(y.max())} is outside the configured {self.n_classes} classes"
            )

    # ------------------------------------------------------------------
    # Objective pieces
    # ------------------------------------------------------------------
    def _forward(
        self, theta: np.ndarray, dataset: Dataset
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one forward pass: max-shifted logits, their exps and row sums.

        These are exactly :func:`softmax`'s intermediates, so the
        probabilities ``exp / sums`` carry its bits.
        """
        self.validate_dataset(dataset)
        self._resolve_classes(dataset)
        Theta = self.reshape(theta, dataset.n_features)
        logits = dataset.X @ Theta.T
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return shifted, exp, exp.sum(axis=1, keepdims=True)

    @staticmethod
    def _data_term(shifted: np.ndarray, sums: np.ndarray, y: np.ndarray) -> float:
        correct = shifted[np.arange(y.shape[0]), y.astype(np.intp)]
        return float(np.mean(np.log(sums[:, 0]) - correct))

    @staticmethod
    def _residuals(exp: np.ndarray, sums: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Softmax probabilities minus the one-hot labels, shape ``(n, K)``."""
        residual = exp / sums
        residual[np.arange(y.shape[0]), y.astype(np.intp)] -= 1.0
        return residual

    @staticmethod
    def _data_gradient(residual: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The mean of the rows ``residual_i ⊗ x_i``, as ``residualᵀ X / n``."""
        return (transposed_row_sum(residual, X) / X.shape[0]).ravel()

    def loss(self, theta: np.ndarray, dataset: Dataset) -> float:
        shifted, _, sums = self._forward(theta, dataset)
        return self._data_term(shifted, sums, dataset.y) + self.regularizer(theta)

    def per_example_gradients(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        _, exp, sums = self._forward(theta, dataset)
        residual = self._residuals(exp, sums, dataset.y)
        n, K = residual.shape
        # Row i is residual_i ⊗ x_i, flattened to K·d.
        return (residual[:, :, None] * dataset.X[:, None, :]).reshape(n, K * dataset.n_features)

    def gradient(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        _, exp, sums = self._forward(theta, dataset)
        residual = self._residuals(exp, sums, dataset.y)
        return self._data_gradient(residual, dataset.X) + self.regularizer_gradient(theta)

    def value_and_gradient(
        self, theta: np.ndarray, dataset: Dataset
    ) -> tuple[float, np.ndarray]:
        shifted, exp, sums = self._forward(theta, dataset)
        residual = self._residuals(exp, sums, dataset.y)
        return (
            self._data_term(shifted, sums, dataset.y) + self.regularizer(theta),
            self._data_gradient(residual, dataset.X) + self.regularizer_gradient(theta),
        )

    def hessian(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        _, exp, sums = self._forward(theta, dataset)
        probabilities = exp / sums
        n, d = dataset.X.shape
        K = probabilities.shape[1]
        H = np.zeros((K * d, K * d))
        for k in range(K):
            for l in range(K):
                weights = probabilities[:, k] * ((1.0 if k == l else 0.0) - probabilities[:, l])
                block = dataset.X.T @ (dataset.X * weights[:, None]) / n
                # Note the sign: d/dΘ_l of (p_k − 1[y=k]) x is p_k(1[k=l] − p_l) x xᵀ.
                H[k * d : (k + 1) * d, l * d : (l + 1) * d] = block
        H += self.regularization * np.eye(K * d)
        return H

    # ------------------------------------------------------------------
    # Prediction and diff
    # ------------------------------------------------------------------
    def predict_proba(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        Theta = self.reshape(theta, X.shape[1])
        return softmax(X @ Theta.T)

    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The argmax of the logits ``X @ Θᵀ``.

        Softmax is monotone but rounds near-tied logits to equal
        probabilities, so the argmax runs before it, as in :meth:`predict_many`.
        """
        X = np.asarray(X, dtype=np.float64)
        Theta = self.reshape(theta, X.shape[1])
        return np.argmax(X @ Theta.T, axis=1).astype(np.int64)

    def _batch_logits(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The ``(k, K, n)`` class scores of a ``(k, K·d)`` parameter batch."""
        X = np.asarray(X, dtype=np.float64)
        Thetas = self._as_parameter_batch(Thetas)
        if self.n_classes is None:
            raise ModelSpecError("class count unknown; call n_parameters or fit first")
        K = self.n_classes
        d = X.shape[1]
        k = Thetas.shape[0]
        if Thetas.shape[1] != K * d:
            raise ModelSpecError(
                f"parameter vectors have length {Thetas.shape[1]}, expected {K * d}"
            )
        # All k·K class scores come from a single (k·K, d) × (d, n) GEMM.
        return (Thetas.reshape(k * K, d) @ X.T).reshape(k, K, -1)

    def predict_many(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.argmax(self._batch_logits(Thetas, X), axis=1).astype(np.int64)

    def _decisions(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """:meth:`predict_many`'s labels from a running max over the classes.

        ``argmax`` over the strided class axis copies the logits transposed
        and costs several times the GEMM.  Here each class's ``(k, n)`` slice
        is compared with the running max of the slices before it: a strict
        ``>`` keeps the first maximal class, as ``argmax`` does.  The classes
        come in rising order, so a row's label is the largest ``c`` whose
        slice beat the running max, one narrow ``maximum`` per class.  Labels
        take the narrowest unsigned dtype that holds K − 1.

        ``np.maximum`` carries a NaN logit into the running max.  ``argmax``
        labels a row by its first NaN, which no ``>`` can see, so a block
        with one falls back to ``argmax``.
        """
        logits = self._batch_logits(Thetas, X)
        n_classes = logits.shape[1]
        dtype = np.min_scalar_type(n_classes - 1)
        top = logits[:, 0].copy()
        labels = np.zeros(top.shape, dtype=dtype)
        beats = np.empty(top.shape, dtype=bool)
        claims = np.empty(top.shape, dtype=dtype)
        for c in range(1, n_classes):
            scores = logits[:, c]
            np.greater(scores, top, out=beats)
            np.multiply(beats.view(np.uint8), dtype.type(c), out=claims)
            np.maximum(labels, claims, out=labels)
            np.maximum(top, scores, out=top)
        if np.isnan(top).any():
            return np.argmax(logits, axis=1).astype(dtype)
        return labels

    def prediction_difference(
        self, theta_a: np.ndarray, theta_b: np.ndarray, dataset: Dataset
    ) -> float:
        predictions_a = self.predict(theta_a, dataset.X)
        predictions_b = self.predict(theta_b, dataset.X)
        return float(np.mean(predictions_a != predictions_b))

    def diff_accumulator(
        self, theta_ref: np.ndarray, Thetas: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        """Streaming multiclass disagreement: exact argmax-mismatch counts."""
        del dataset
        return self._disagreement_accumulator(theta_ref, Thetas)

    def pairwise_diff_accumulator(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        del dataset
        return self._pairwise_disagreement_accumulator(Thetas_a, Thetas_b)

    def describe(self) -> dict:
        description = super().describe()
        description["n_classes"] = self.n_classes
        return description
