"""Linear regression (Lin) model class specification.

Gaussian-noise linear regression is an MLE problem: the negative
log-likelihood of ``y_i ~ N(θᵀx_i, σ²)`` is, up to constants,

    f_n(θ) = (1/2σ²) · (1/n) Σ (θᵀx_i − y_i)² + (β/2) ‖θ‖²

whose per-example gradient is ``q(θ; x_i, y_i) = (θᵀx_i − y_i) x_i / σ²``
and whose Hessian has the closed form ``H = XᵀX / (nσ²) + βI`` — which is
why Lin supports all three statistics-computation methods of Section 3.4.

The noise variance σ² matters for BlinkML even though it does not change
the minimiser: the ObservedFisher method relies on the information-matrix
equality (gradient covariance = Hessian), which only holds for the
*correctly specified* likelihood.  With the default ``noise_variance=1``
(the implicit assumption in the paper's formulation) and data whose residual
variance differs from 1, ObservedFisher's covariance is mis-scaled by
``(σ²_true)²``.  Pass the true/estimated noise variance — or use
:meth:`LinearRegressionSpec.with_estimated_noise` — to keep the statistics
calibrated; this is the Lin analogue of PPCA's ``sigma2`` hyperparameter.

An intercept column is the caller's responsibility (the synthetic workloads
are generated centred, matching the paper's standardised datasets).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ModelSpecError
from repro.models.base import (
    DiffAccumulator,
    GeneralizedLinearSpec,
    PrecomputedDiffAccumulator,
    holdout_label_scale,
    row_blocked_product,
)


class LinearRegressionSpec(GeneralizedLinearSpec):
    """L2-regularised Gaussian linear regression.

    Parameters
    ----------
    regularization:
        The L2 coefficient β (the paper uses 0.001 in its experiments).
    noise_variance:
        The observation-noise variance σ² of the Gaussian likelihood.  It
        rescales the objective (and therefore the effective regularisation
        strength) and calibrates the ObservedFisher statistics; it does not
        change the unregularised minimiser.
    normalize_difference:
        When true (default) the prediction-difference metric
        ``sqrt(E[(m_n(x) − m_N(x))²])`` is divided by the holdout-label
        standard deviation, so that "accuracy = 1 − v" is on the same 0–100 %
        scale the paper sweeps for classification models.
    """

    task = "regression"
    name = "lin"

    def __init__(
        self,
        regularization: float = 1e-3,
        noise_variance: float = 1.0,
        normalize_difference: bool = True,
    ):
        super().__init__(regularization=regularization)
        if noise_variance <= 0:
            raise ModelSpecError("noise_variance must be positive")
        self.noise_variance = float(noise_variance)
        self.normalize_difference = normalize_difference

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_estimated_noise(
        cls,
        dataset: Dataset,
        regularization: float = 1e-3,
        normalize_difference: bool = True,
        max_rows: int = 20_000,
    ) -> LinearRegressionSpec:
        """Build a spec whose σ² is the residual variance of a quick OLS fit.

        A least-squares fit on (at most ``max_rows``) rows estimates the
        residual variance; that estimate becomes the likelihood's noise
        variance so the information-matrix equality — and hence the
        ObservedFisher statistics — are calibrated for this dataset.
        """
        if dataset.y is None:
            raise ModelSpecError("noise estimation requires labels")
        view = dataset.head(min(max_rows, dataset.n_rows))
        theta, *_ = np.linalg.lstsq(view.X, view.y, rcond=None)
        residuals = view.y - view.X @ theta
        noise_variance = float(np.mean(residuals**2))
        if noise_variance <= 0:
            noise_variance = 1.0
        return cls(
            regularization=regularization,
            noise_variance=noise_variance,
            normalize_difference=normalize_difference,
        )

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def n_parameters(self, dataset: Dataset) -> int:
        return dataset.n_features

    # ------------------------------------------------------------------
    # Objective pieces
    # ------------------------------------------------------------------
    def _data_term(self, z: np.ndarray, y: np.ndarray) -> float:
        residuals = z - y
        return 0.5 * float(np.mean(residuals**2)) / self.noise_variance

    def _slopes(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (z - y) / self.noise_variance

    def hessian(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        del theta  # the Hessian of a quadratic does not depend on θ
        n, d = dataset.X.shape
        return dataset.X.T @ dataset.X / (n * self.noise_variance) + self.regularization * np.eye(d)

    # ------------------------------------------------------------------
    # Prediction and diff
    # ------------------------------------------------------------------
    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ np.asarray(theta, dtype=np.float64)

    def predict_many(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        Thetas = self._as_parameter_batch(Thetas)
        return Thetas @ np.asarray(X, dtype=np.float64).T

    def _difference_scale(self, dataset: Dataset) -> float:
        if not self.normalize_difference:
            return 1.0
        return holdout_label_scale(dataset, "regression")

    def prediction_difference(
        self, theta_a: np.ndarray, theta_b: np.ndarray, dataset: Dataset
    ) -> float:
        predictions_a = self.predict(theta_a, dataset.X)
        predictions_b = self.predict(theta_b, dataset.X)
        rms = float(np.sqrt(np.mean((predictions_a - predictions_b) ** 2)))
        return rms / self._difference_scale(dataset)

    def diff_accumulator(
        self, theta_ref: np.ndarray, Thetas: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        """Diffs from the holdout factor, or streamed RMS gaps for a subclass."""
        scale = self._difference_scale(dataset)
        if not self._diffs_from_factor:
            return self._rms_accumulator(theta_ref, Thetas, scale)
        gaps = self._as_parameter_batch(Thetas) - np.asarray(theta_ref, dtype=np.float64)
        return self._factor_accumulator(gaps, dataset, scale)

    def pairwise_diff_accumulator(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        scale = self._difference_scale(dataset)
        if not self._diffs_from_factor:
            return self._pairwise_rms_accumulator(Thetas_a, Thetas_b, scale)
        Thetas_a, Thetas_b = self._as_paired_batches(Thetas_a, Thetas_b)
        return self._factor_accumulator(Thetas_a - Thetas_b, dataset, scale)

    @property
    def _diffs_from_factor(self) -> bool:
        # Lin's own predictions are X θ, so a pair's RMS gap over the holdout
        # is ‖R(θ_a − θ_b)‖ for the holdout factor R.  A subclass with other
        # predictions streams them.
        return type(self).predict_many is LinearRegressionSpec.predict_many

    def _factor_accumulator(
        self, gaps: np.ndarray, dataset: Dataset, scale: float
    ) -> DiffAccumulator:
        """``‖R gᵢ‖ / scale`` per parameter gap gᵢ: O(k·d²), no holdout rows.

        The factor is the streaming engine's memoised one-pass TSQR; the
        engine imports this module, so it is imported at call time.
        """
        from repro.evaluation.streaming import holdout_factor

        projected = row_blocked_product(gaps, holdout_factor(dataset).T)
        return PrecomputedDiffAccumulator(
            np.sqrt(np.einsum("kd,kd->k", projected, projected)) / scale
        )

    def describe(self) -> dict:
        description = super().describe()
        description["normalize_difference"] = self.normalize_difference
        description["noise_variance"] = self.noise_variance
        return description
