"""Factored representation of the parameter covariance ``H⁻¹ J H⁻¹``.

Theorem 1 of the paper states that the difference between the approximate
and full model parameters follows ``N(0, α H⁻¹ J H⁻¹)``.  Explicitly forming
that d-by-d matrix costs Ω(d²) space — prohibitive when d reaches the
million-feature regime of the Criteo experiment — so BlinkML stores a thin
factor ``L`` with ``L Lᵀ = H⁻¹ J H⁻¹`` instead (Sections 3.4 and 4.3):

* the ObservedFisher path performs an SVD of the scaled per-example gradient
  matrix, giving ``J = U Σ² Uᵀ`` without ever forming ``J``; with L2
  regularisation ``r(θ) = βθ`` the factor is ``L = U Λ`` where
  ``Λ_ii = s_i / (s_i² + β)``;
* the ClosedForm / InverseGradients paths hold dense ``H`` and ``J`` (they
  are only used for low-dimensional data) and derive ``L`` by an
  eigendecomposition of the dense covariance.

:class:`FactoredCovariance` encapsulates both constructions and offers the
linear transform used by the fast parameter sampler, plus dense
reconstruction helpers used in tests and diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import StatisticsError
from repro.linalg.utils import symmetrize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.linalg.moments import GradientMomentSummary

#: Relative thresholds below which a direction of the factor is dropped:
#: singular values of the scaled gradient matrix (ObservedFisher) and
#: eigenvalues of the dense covariance (ClosedForm / InverseGradients).
RANK_TOLERANCE = 1e-12
EIG_TOLERANCE = 1e-12


@dataclass(frozen=True)
class FactoredCovariance:
    """A thin factor ``L`` of the unscaled parameter covariance.

    Attributes
    ----------
    transform:
        Array of shape ``(d, r)`` with ``transform @ transform.T`` equal to
        ``H⁻¹ J H⁻¹`` (the *unscaled* covariance; the ``α = 1/n − 1/N``
        factor is applied by the sampler via sampling-by-scaling).
    singular_values:
        The singular values ``s_i`` of the scaled gradient matrix when the
        factor was built by ObservedFisher, or the eigenvalue-derived
        pseudo-singular-values for dense constructions.  Useful for
        diagnostics (Figure 9a reproduces variance ratios from these).
    regularization:
        The L2 coefficient β that entered ``H = J + βI``.
    """

    transform: np.ndarray
    singular_values: np.ndarray
    regularization: float

    def __post_init__(self) -> None:
        transform = np.asarray(self.transform, dtype=np.float64)
        if transform.ndim != 2:
            raise StatisticsError(
                f"transform must be a 2-D array, got shape {transform.shape}"
            )
        object.__setattr__(self, "transform", transform)
        object.__setattr__(
            self, "singular_values", np.asarray(self.singular_values, dtype=np.float64)
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_gradient_summary(
        cls,
        summary: "GradientMomentSummary",
        regularization: float = 0.0,
    ) -> FactoredCovariance:
        """Build the factor from a gradient moment summary (ObservedFisher).

        J is the covariance of the per-example gradients ``qᵢ``,
        ``J = (1/n) Σ qᵢqᵢᵀ``.  The summary's triangular factor satisfies
        ``RᵀR = Σ qᵢqᵢᵀ``, so ``R / √n`` has exactly the singular values and
        right singular vectors of the scaled per-example gradient matrix
        ``Q / √n``, and its SVD gives ``J = U diag(s²) Uᵀ`` without ever
        materialising ``Q``.

        Parameters
        ----------
        summary:
            The TSQR summary of the *unregularised* per-example gradients
            (:meth:`GradientMomentSummary.from_gradients
            <repro.linalg.moments.GradientMomentSummary.from_gradients>` of
            one block, or a shard-merged fold).
        regularization:
            The L2 coefficient β.  ``H = J + βI`` per the information-matrix
            equality discussion in Section 3.4.

        Singular values below :data:`RANK_TOLERANCE` times the largest are
        treated as zero (directions with no gradient variance contribute
        nothing to the covariance).
        """
        if summary.rows < 2:
            raise StatisticsError("need at least two per-example gradients")
        if regularization < 0:
            raise StatisticsError("regularization must be non-negative")
        scaled = summary.r_factor / np.sqrt(summary.rows)
        # full_matrices=False keeps U at (d, min(n, d)): the O(min(n²d, nd²))
        # cost quoted in Section 3.4.
        try:
            _, s, vt = np.linalg.svd(scaled, full_matrices=False)
        except np.linalg.LinAlgError:
            # NumPy's default divide-and-conquer driver (gesdd) occasionally
            # fails to converge on perfectly finite inputs; the slower but
            # more robust gesvd driver handles those cases.
            from scipy.linalg import svd as scipy_svd

            _, s, vt = scipy_svd(
                scaled, full_matrices=False, lapack_driver="gesvd"
            )
        U = vt.T
        if s.size == 0 or s[0] <= 0:
            raise StatisticsError("gradient matrix has no variance; cannot factorise J")
        keep = s > RANK_TOLERANCE * s[0]
        U = U[:, keep]
        s = s[keep]

        lam = cls._lambda_from_singular_values(s, regularization)
        return cls(transform=U * lam, singular_values=s, regularization=regularization)

    @classmethod
    def from_dense(
        cls,
        hessian: np.ndarray,
        gradient_covariance: np.ndarray,
        regularization: float = 0.0,
    ) -> FactoredCovariance:
        """Build the factor from dense ``H`` and ``J`` (ClosedForm / InverseGradients).

        The dense path is only used for low-dimensional models, so an
        explicit ``H⁻¹ J H⁻¹`` followed by an eigendecomposition is
        affordable.  Eigenvalues below :data:`EIG_TOLERANCE` times the
        largest are treated as zero.
        """
        H = symmetrize(hessian)
        J = symmetrize(gradient_covariance)
        if H.shape != J.shape:
            raise StatisticsError(f"H and J shapes differ: {H.shape} vs {J.shape}")
        try:
            H_inv = np.linalg.inv(H)
        except np.linalg.LinAlgError as exc:
            raise StatisticsError("Hessian H is singular; cannot invert") from exc
        covariance = symmetrize(H_inv @ J @ H_inv)
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        # Clip tiny negative eigenvalues caused by round-off.
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        keep = eigenvalues > EIG_TOLERANCE * max(eigenvalues.max(), 1e-300)
        if not np.any(keep):
            raise StatisticsError("covariance H⁻¹JH⁻¹ is numerically zero")
        eigenvalues = eigenvalues[keep]
        eigenvectors = eigenvectors[:, keep]
        transform = eigenvectors * np.sqrt(eigenvalues)
        # Report pseudo singular values so diagnostics remain comparable.
        pseudo_s = np.sqrt(eigenvalues)
        return cls(
            transform=transform,
            singular_values=pseudo_s[::-1],
            regularization=regularization,
        )

    @staticmethod
    def _lambda_from_singular_values(s: np.ndarray, beta: float) -> np.ndarray:
        """Return ``Λ_ii = s_i / (s_i² + β)``, the Section 4.3 diagonal."""
        if beta == 0.0:
            # Without regularisation H = J, so H⁻¹JH⁻¹ = J⁻¹ restricted to
            # the span of U: eigenvalues 1 / s_i².
            return 1.0 / s
        return s / (s**2 + beta)

    # ------------------------------------------------------------------
    # Properties and transforms
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """The parameter dimension d."""
        return int(self.transform.shape[0])

    @property
    def rank(self) -> int:
        """Rank of the factor (number of retained directions)."""
        return int(self.transform.shape[1])

    def apply(self, z: np.ndarray) -> np.ndarray:
        """Map standard-normal draws ``z`` of shape ``(..., rank)`` to ``L z``.

        If ``z ~ N(0, I_rank)`` then ``apply(z) ~ N(0, H⁻¹ J H⁻¹)``.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1] != self.rank:
            raise StatisticsError(
                f"expected last dimension {self.rank}, got {z.shape[-1]}"
            )
        return z @ self.transform.T

    def dense(self) -> np.ndarray:
        """Materialise ``H⁻¹ J H⁻¹`` (tests / low-dimensional diagnostics only)."""
        return self.transform @ self.transform.T

    def marginal_variances(self) -> np.ndarray:
        """Per-parameter variances ``diag(H⁻¹ J H⁻¹)`` without densifying."""
        return np.einsum("ij,ij->i", self.transform, self.transform)

    def scaled(self, alpha: float) -> np.ndarray:
        """Return the dense covariance scaled by ``α`` (convenience for tests)."""
        if alpha < 0:
            raise StatisticsError("alpha must be non-negative")
        return alpha * self.dense()
