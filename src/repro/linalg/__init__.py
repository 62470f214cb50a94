"""Linear-algebra substrate.

BlinkML's scalability to high-dimensional data hinges on never materialising
the d-by-d covariance matrix ``H^{-1} J H^{-1}`` (Sections 3.4 and 4.3).
This subpackage holds the factored representation that makes this possible:

* :class:`repro.linalg.covariance.FactoredCovariance` — the SVD-based
  ``U, Σ`` factorisation of the per-example gradient matrix, the derived
  transform ``L = U Λ`` with ``L Lᵀ = H⁻¹ J H⁻¹``, and dense reconstruction
  helpers used for testing and for the ClosedForm / InverseGradients paths;
* :mod:`repro.linalg.moments` — shard-mergeable moment summaries
  (tall-skinny-QR gradient factors, probe gradient sums, block Hessian
  sums) that the streaming statistics tier folds block by block and the
  shard store persists as per-shard sidecars;
* :mod:`repro.linalg.utils` — small shared helpers (``freeze``,
  symmetrisation, the Frobenius distance of Section 5.6).
"""

from repro.linalg.covariance import FactoredCovariance
from repro.linalg.moments import (
    BlockHessianSummary,
    GradientMomentSummary,
    MomentSummary,
    ProbeMomentSummary,
    SUMMARY_KINDS,
    summary_kind,
)
from repro.linalg.utils import (
    freeze,
    symmetrize,
    frobenius_distance,
)

__all__ = [
    "freeze",
    "FactoredCovariance",
    "GradientMomentSummary",
    "ProbeMomentSummary",
    "BlockHessianSummary",
    "MomentSummary",
    "SUMMARY_KINDS",
    "summary_kind",
    "symmetrize",
    "frobenius_distance",
]
