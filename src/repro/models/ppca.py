"""Probabilistic principal component analysis (PPCA) model class specification.

PPCA (Tipping & Bishop, 1999) models observations as ``x ~ N(0, C)`` with
``C = ΘΘᵀ + σ²I`` where Θ is a d-by-q factor-loading matrix.  Training
maximises the Gaussian likelihood, so PPCA fits BlinkML's MLE abstraction
(Appendix A):

    f_n(Θ) = (1/2)(d log 2π + log |C| + tr(C⁻¹ S)),  S = (1/n) Σ x_i x_iᵀ

with per-example gradient ``q(Θ; x_i) = C⁻¹Θ − C⁻¹ x_i x_iᵀ C⁻¹ Θ`` and
no regulariser (``r(Θ) = 0``).

All d-by-d inverses are avoided through the Woodbury identity, so the cost
per evaluation is O(n·d·q + q³), which keeps the model usable for the
high-dimensional experiments.  Parameters are exchanged as the flattened
(d·q)-vector, exactly as the paper describes.

The paper's model-difference metric for unsupervised learning (Appendix C)
is ``v = 1 − cosine(θ_n, θ_N)`` on the flattened parameters.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ModelSpecError
from repro.models.base import (
    DiffAccumulator,
    ModelClassSpec,
    PrecomputedDiffAccumulator,
    transposed_row_sum,
)
from repro.optim.base import Objective


class PPCASpec(ModelClassSpec):
    """Probabilistic PCA with ``n_factors`` latent dimensions.

    Parameters
    ----------
    n_factors:
        Number of factors q (the paper uses 10).
    sigma2:
        Observation noise variance σ², treated as a fixed hyperparameter.
        The paper notes the optimal σ can be recovered once Θ is known; the
        guarantee machinery only needs the Θ-gradients, so holding σ² fixed
        keeps the MLE abstraction exact.
    regularization:
        Optional L2 coefficient on Θ (0 in the paper).
    """

    task = "unsupervised"
    name = "ppca"

    def __init__(self, n_factors: int = 10, sigma2: float = 1.0, regularization: float = 0.0):
        super().__init__(regularization=regularization)
        if n_factors < 1:
            raise ModelSpecError("PPCA needs at least one factor")
        if sigma2 <= 0:
            raise ModelSpecError("noise variance sigma2 must be positive")
        self.n_factors = int(n_factors)
        self.sigma2 = float(sigma2)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_estimated_noise(
        cls,
        dataset: Dataset,
        n_factors: int = 10,
        regularization: float = 0.0,
        max_rows: int = 20_000,
        min_sigma2: float = 1e-3,
    ) -> PPCASpec:
        """Build a spec whose σ² is the Tipping–Bishop maximum-likelihood value.

        For PPCA the MLE of the noise variance is the average of the
        ``d − q`` smallest eigenvalues of the sample covariance; estimating
        it from a subsample keeps the Gaussian likelihood well specified,
        which in turn keeps the ObservedFisher statistics calibrated (the
        same consideration as ``LinearRegressionSpec.with_estimated_noise``).
        """
        view = dataset.head(min(max_rows, dataset.n_rows))
        if n_factors >= view.n_features:
            raise ModelSpecError("n_factors must be smaller than the feature dimension")
        centered = view.X - view.X.mean(axis=0)
        sample_covariance = centered.T @ centered / view.n_rows
        eigenvalues = np.sort(np.linalg.eigvalsh(sample_covariance))
        discarded = eigenvalues[: view.n_features - n_factors]
        sigma2 = float(max(discarded.mean(), min_sigma2))
        return cls(n_factors=n_factors, sigma2=sigma2, regularization=regularization)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def n_parameters(self, dataset: Dataset) -> int:
        if self.n_factors > dataset.n_features:
            raise ModelSpecError(
                f"n_factors={self.n_factors} exceeds feature dimension {dataset.n_features}"
            )
        return dataset.n_features * self.n_factors

    def initial_parameters(self, dataset: Dataset, rng: np.random.Generator | None = None) -> np.ndarray:
        # Θ = 0 is a saddle point of the likelihood, so start from a small,
        # deterministic random loading.  Using a fixed seed keeps the full
        # and approximate models in the same orientation, which the cosine
        # difference metric relies on.
        rng = rng or np.random.default_rng(12345)
        d = dataset.n_features
        return 0.1 * rng.standard_normal(d * self.n_factors)

    def reshape(self, theta: np.ndarray, n_features: int) -> np.ndarray:
        """View the flat parameter vector as the (d, q) loading matrix Θ."""
        theta = np.asarray(theta, dtype=np.float64)
        expected = n_features * self.n_factors
        if theta.shape[0] != expected:
            raise ModelSpecError(
                f"parameter vector has length {theta.shape[0]}, expected {expected}"
            )
        return theta.reshape(n_features, self.n_factors)

    # ------------------------------------------------------------------
    # Woodbury helpers
    # ------------------------------------------------------------------
    def _woodbury(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Return ``(M, M⁻¹, log|C|)`` for ``C = ΘΘᵀ + σ²I``.

        ``M = σ²I_q + ΘᵀΘ`` is the q-by-q capacitance matrix of the Woodbury
        identity; ``log|C| = (d − q) log σ² + log|M|``.
        """
        d, q = Theta.shape
        M = self.sigma2 * np.eye(q) + Theta.T @ Theta
        sign, logdet_M = np.linalg.slogdet(M)
        if sign <= 0:
            raise ModelSpecError("capacitance matrix M is not positive definite")
        M_inv = np.linalg.inv(M)
        logdet_C = (d - q) * np.log(self.sigma2) + logdet_M
        return M, M_inv, logdet_C

    def _apply_C_inverse(self, Theta: np.ndarray, M_inv: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Compute ``C⁻¹ V`` via Woodbury without forming the d-by-d ``C⁻¹``."""
        return (V - Theta @ (M_inv @ (Theta.T @ V))) / self.sigma2

    # ------------------------------------------------------------------
    # Objective pieces
    # ------------------------------------------------------------------
    def _forward(
        self, theta: np.ndarray, dataset: Dataset
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Θ, ``M⁻¹`` and ``log|C|``: the Woodbury terms every piece shares."""
        Theta = self.reshape(theta, dataset.n_features)
        _, M_inv, logdet_C = self._woodbury(Theta)
        return Theta, M_inv, logdet_C

    def _data_term(
        self,
        Theta: np.ndarray,
        M_inv: np.ndarray,
        logdet_C: float,
        X: np.ndarray,
        squared_norm: float,
    ) -> float:
        """The mean negative log-likelihood; ``squared_norm`` is ``‖X‖_F²``."""
        n, d = X.shape
        # tr(C⁻¹ S) with S = (1/n) XᵀX, evaluated without forming S:
        # (1/(n σ²)) (‖X‖_F² − tr(M⁻¹ (XΘ)ᵀ (XΘ))).
        XTheta = X @ Theta
        trace_term = (squared_norm - float(np.sum((XTheta @ M_inv) * XTheta))) / (
            n * self.sigma2
        )
        return 0.5 * (d * np.log(2.0 * np.pi) + logdet_C + trace_term)

    def _data_gradient(self, Theta: np.ndarray, M_inv: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The mean of the rows ``A − (C⁻¹ x_i)(x_iᵀ A)``, ``A = C⁻¹Θ``.

        Their mean is ``A − C⁻¹(Xᵀ(XA)) / n``, flattened to d·q.
        """
        A = self._apply_C_inverse(Theta, M_inv, Theta)
        XtXA = transposed_row_sum(X, X @ A)
        return (A - self._apply_C_inverse(Theta, M_inv, XtXA) / X.shape[0]).ravel()

    def loss(self, theta: np.ndarray, dataset: Dataset) -> float:
        Theta, M_inv, logdet_C = self._forward(theta, dataset)
        X = dataset.X
        data_term = self._data_term(Theta, M_inv, logdet_C, X, _squared_norm(X))
        return data_term + self.regularizer(theta)

    def per_example_gradients(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        Theta, M_inv, _ = self._forward(theta, dataset)
        X = dataset.X
        A = self._apply_C_inverse(Theta, M_inv, Theta)  # (d, q), shared by every row
        # Row i is A − (C⁻¹ x_i)(x_iᵀ A): only the rank-one correction
        # depends on the example.
        inverse_rows = self._apply_C_inverse(Theta, M_inv, X.T).T  # (n, d)
        correction = inverse_rows[:, :, None] * (X @ A)[:, None, :]
        return np.subtract(A, correction, out=correction).reshape(X.shape[0], A.size)

    def gradient(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        Theta, M_inv, _ = self._forward(theta, dataset)
        return self._data_gradient(Theta, M_inv, dataset.X) + self.regularizer_gradient(theta)

    def value_and_gradient(
        self, theta: np.ndarray, dataset: Dataset
    ) -> tuple[float, np.ndarray]:
        return self._value_and_gradient(theta, dataset, _squared_norm(dataset.X))

    def _value_and_gradient(
        self, theta: np.ndarray, dataset: Dataset, squared_norm: float
    ) -> tuple[float, np.ndarray]:
        Theta, M_inv, logdet_C = self._forward(theta, dataset)
        X = dataset.X
        return (
            self._data_term(Theta, M_inv, logdet_C, X, squared_norm) + self.regularizer(theta),
            self._data_gradient(Theta, M_inv, X) + self.regularizer_gradient(theta),
        )

    def objective(self, dataset: Dataset) -> Objective:
        """A fit's objective, with ``‖X‖_F²`` computed once instead of per step."""
        return _PPCAObjective(self, dataset)

    # ------------------------------------------------------------------
    # Prediction and diff
    # ------------------------------------------------------------------
    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Posterior-mean latent scores ``E[z | x] = M⁻¹ Θᵀ x`` per row."""
        X = np.asarray(X, dtype=np.float64)
        Theta = self.reshape(theta, X.shape[1])
        _, M_inv, _ = self._woodbury(Theta)
        return X @ Theta @ M_inv

    def _loading_batch(self, Thetas: np.ndarray, n_features: int) -> np.ndarray:
        """View a ``(k, d·q)`` parameter batch as ``(k, d, q)`` loadings."""
        Thetas = self._as_parameter_batch(Thetas)
        expected = n_features * self.n_factors
        if Thetas.shape[1] != expected:
            raise ModelSpecError(
                f"parameter vectors have length {Thetas.shape[1]}, expected {expected}"
            )
        return Thetas.reshape(Thetas.shape[0], n_features, self.n_factors)

    def predict_many(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Latent scores for each loading matrix, shape ``(k, n, q)``.

        The expensive ``X Θ_i`` products for all k loadings collapse into a
        single ``(n, d) × (d, k·q)`` GEMM; only the q-by-q capacitance
        solves stay per-member (they are independent of n).
        """
        X = np.asarray(X, dtype=np.float64)
        q = self.n_factors
        loadings = self._loading_batch(Thetas, X.shape[1])  # (k, d, q)
        k, d, _ = loadings.shape
        projected = X @ loadings.transpose(1, 0, 2).reshape(d, k * q)  # (n, k·q)
        projected = projected.reshape(-1, k, q).transpose(1, 0, 2)  # (k, n, q)
        M = self.sigma2 * np.eye(q)[None, :, :] + loadings.transpose(0, 2, 1) @ loadings
        signs, _ = np.linalg.slogdet(M)
        if np.any(signs <= 0):
            raise ModelSpecError("capacitance matrix M is not positive definite")
        return projected @ np.linalg.inv(M)

    def reconstruct(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Reconstruction ``Θ E[z | x]`` of each row from its latent scores."""
        X = np.asarray(X, dtype=np.float64)
        Theta = self.reshape(theta, X.shape[1])
        return self.predict(theta, X) @ Theta.T

    def prediction_difference(
        self, theta_a: np.ndarray, theta_b: np.ndarray, dataset: Dataset
    ) -> float:
        """``1 − cosine`` between loading matrices after rotation alignment.

        The PPCA likelihood is invariant under right-rotation of the loading
        matrix (``ΘΘᵀ`` is unchanged by ``Θ → ΘR`` for orthogonal R), so two
        independently trained models can describe the *same* distribution
        with differently rotated factors.  The paper's plain cosine metric
        (Appendix C) implicitly assumes a consistent orientation; to keep
        the metric meaningful for independently trained models we first
        align the factors with the optimal orthogonal rotation (Procrustes)
        and then take ``1 − cosine`` of the flattened matrices.  For the
        parameter perturbations the estimators sample (no rotation), the
        aligned and unaligned metrics coincide up to second order.
        """
        a = np.asarray(theta_a, dtype=np.float64)
        b = np.asarray(theta_b, dtype=np.float64)
        norm_a = float(np.linalg.norm(a))
        norm_b = float(np.linalg.norm(b))
        if norm_a == 0 or norm_b == 0:
            return 1.0
        Theta_a = self.reshape(a, dataset.n_features)
        Theta_b = self.reshape(b, dataset.n_features)
        # Orthogonal Procrustes: R = U Vᵀ from the SVD of Θ_aᵀ Θ_b maximises
        # <Θ_a R, Θ_b>, and that maximum inner product is the sum of the
        # singular values of Θ_aᵀ Θ_b.
        singular_values = np.linalg.svd(Theta_a.T @ Theta_b, compute_uv=False)
        cosine = float(singular_values.sum()) / (norm_a * norm_b)
        return 1.0 - min(cosine, 1.0)

    def _batched_procrustes_differences(
        self,
        loadings_a: np.ndarray,
        loadings_b: np.ndarray,
        norms_a: np.ndarray,
        norms_b: np.ndarray,
    ) -> np.ndarray:
        """Aligned ``1 − cosine`` for matched ``(k, d, q)`` loading stacks.

        The k cross-products are one batched q×q GEMM stack and the nuclear
        norms come from one batched SVD — no per-pair Python loop.
        """
        differences = np.ones(loadings_a.shape[0])
        valid = (norms_a > 0) & (norms_b > 0)
        if not np.any(valid):
            return differences
        cross = loadings_a[valid].transpose(0, 2, 1) @ loadings_b[valid]  # (v, q, q)
        singular_values = np.linalg.svd(cross, compute_uv=False)  # (v, q)
        cosines = singular_values.sum(axis=1) / (norms_a[valid] * norms_b[valid])
        differences[valid] = 1.0 - np.minimum(cosines, 1.0)
        return differences

    # Streaming note: PPCA's diff lives in parameter space — the aligned
    # ``1 − cosine`` metric depends only on the loading matrices
    # (Appendix C), already O(k · d · q) in time and memory with no
    # ``(k, n_holdout)`` block to shard.  The accumulators below hand the
    # driver a PrecomputedDiffAccumulator (``needs_holdout_blocks = False``)
    # computed straight from the parameter batches; unlike the generic
    # base-class fallback they never materialise the holdout, because the
    # metric reads only ``dataset.n_features`` — which block sources
    # (repro.data.store.ShardedDataset) expose without touching a row, so
    # a PPCA session over an out-of-core holdout stays out of core.
    def diff_accumulator(
        self, theta_ref: np.ndarray, Thetas: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        theta_ref = np.asarray(theta_ref, dtype=np.float64)
        loadings = self._loading_batch(Thetas, dataset.n_features)
        norm_ref = float(np.linalg.norm(theta_ref))
        if norm_ref == 0:
            return PrecomputedDiffAccumulator(np.ones(loadings.shape[0]))
        reference = self.reshape(theta_ref, dataset.n_features)
        references = np.broadcast_to(reference, loadings.shape)
        norms = np.linalg.norm(loadings.reshape(loadings.shape[0], -1), axis=1)
        return PrecomputedDiffAccumulator(
            self._batched_procrustes_differences(
                references, loadings, np.full(loadings.shape[0], norm_ref), norms
            )
        )

    def pairwise_diff_accumulator(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        Thetas_a, Thetas_b = self._as_paired_batches(Thetas_a, Thetas_b)
        loadings_a = self._loading_batch(Thetas_a, dataset.n_features)
        loadings_b = self._loading_batch(Thetas_b, dataset.n_features)
        norms_a = np.linalg.norm(loadings_a.reshape(loadings_a.shape[0], -1), axis=1)
        norms_b = np.linalg.norm(loadings_b.reshape(loadings_b.shape[0], -1), axis=1)
        return PrecomputedDiffAccumulator(
            self._batched_procrustes_differences(loadings_a, loadings_b, norms_a, norms_b)
        )

    def describe(self) -> dict:
        description = super().describe()
        description.update({"n_factors": self.n_factors, "sigma2": self.sigma2})
        return description


def _squared_norm(X: np.ndarray) -> float:
    """``‖X‖_F²``, the data term's part that does not depend on Θ."""
    return float(np.sum(X * X))


class _PPCAObjective(Objective):
    """A (spec, dataset) pair whose fixed ``‖X‖_F²`` is computed once."""

    def __init__(self, spec: PPCASpec, dataset: Dataset):
        self._spec = spec
        self._dataset = dataset
        self._squared_norm = _squared_norm(dataset.X)

    def value_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self._spec._value_and_gradient(theta, self._dataset, self._squared_norm)
