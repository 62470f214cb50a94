"""Shard-mergeable moment summaries for the streaming statistics tier.

The Section 3.4 statistics are built from per-example gradients ``q_i`` —
quantities that decompose over row blocks.  This module holds the pure
linear-algebra side of that decomposition: compact, picklable summaries
that any worker can compute from one block (or one shard) and any reader
can combine associatively, in the same spirit as the Chan-combined
:class:`repro.data.store.LabelMoments`.

Three summary kinds, one per statistics method:

* :class:`GradientMomentSummary` (ObservedFisher) — the gradient sum plus a
  thin triangular factor ``R`` with ``RᵀR = Σ qᵢqᵢᵀ``, maintained by
  tall-skinny QR.  Merging two summaries stacks their R factors and
  re-triangularises, so the combined factor is always at most ``d × d`` —
  the per-example gradient matrix is never materialised, and an SVD of
  ``R/√n`` yields exactly the singular values / right singular vectors an
  SVD of ``Q/√n`` would (QR is backward stable; no Gram matrix is ever
  formed, so no squaring of the condition number).
* :class:`ProbeMomentSummary` (InverseGradients) — per-probe gradient sums
  for the ``d + 1`` finite-difference probes; merging adds.
* :class:`BlockHessianSummary` (ClosedForm) — the row-count-weighted sum of
  per-block data Hessians (regulariser stripped); merging adds.

Every summary round-trips losslessly through :meth:`to_arrays` /
:meth:`from_arrays` — the serialisation the per-shard statistics sidecars
(:mod:`repro.data.store.statistics_index`) persist — so a summary read back
from disk merges bitwise-identically to one computed in process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import StatisticsError


def _triangular_factor(stacked: np.ndarray) -> np.ndarray:
    """The ``R`` of a reduced QR of ``stacked`` (``RᵀR = stackedᵀ stacked``)."""
    return np.linalg.qr(np.ascontiguousarray(stacked, dtype=np.float64), mode="r")


@dataclass(frozen=True)
class GradientMomentSummary:
    """TSQR summary of a set of per-example gradients.

    Attributes
    ----------
    rows:
        Number of per-example gradients folded in.
    gradient_sum:
        ``Σ qᵢ`` of shape ``(d,)`` — recovers the mean gradient of any
        union of summaries exactly as ``gradient_sum / rows``.
    r_factor:
        ``(r, d)`` with ``r = min(rows, d)`` and ``r_factorᵀ r_factor =
        Σ qᵢqᵢᵀ`` — the raw (uncentred) second moment ``n·J`` in factored
        form, which is all ObservedFisher needs.
    """

    rows: int
    gradient_sum: np.ndarray
    r_factor: np.ndarray

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise StatisticsError("a gradient moment summary needs at least one row")
        gradient_sum = np.asarray(self.gradient_sum, dtype=np.float64)
        r_factor = np.asarray(self.r_factor, dtype=np.float64)
        if gradient_sum.ndim != 1 or r_factor.ndim != 2:
            raise StatisticsError(
                f"malformed gradient moment summary: gradient_sum "
                f"{gradient_sum.shape}, r_factor {r_factor.shape}"
            )
        if r_factor.shape[1] != gradient_sum.shape[0]:
            raise StatisticsError(
                f"summary dimension mismatch: r_factor has {r_factor.shape[1]} "
                f"columns, gradient_sum {gradient_sum.shape[0]} entries"
            )
        object.__setattr__(self, "gradient_sum", gradient_sum)
        object.__setattr__(self, "r_factor", r_factor)

    @property
    def dimension(self) -> int:
        return int(self.gradient_sum.shape[0])

    @classmethod
    def from_gradients(cls, gradients: np.ndarray) -> "GradientMomentSummary":
        """Summarise one ``(n, d)`` block of per-example gradients."""
        Q = np.asarray(gradients, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] == 0:
            raise StatisticsError(
                f"per-example gradients must form a non-empty 2-D matrix, "
                f"got shape {Q.shape}"
            )
        return cls(
            rows=int(Q.shape[0]),
            gradient_sum=Q.sum(axis=0),
            r_factor=_triangular_factor(Q),
        )

    def updated(self, gradients: np.ndarray) -> "GradientMomentSummary":
        """Fold one more gradient block in (one QR of ``(r + b, d)`` rows).

        This is THE canonical within-shard fold: the statistics tier builds
        every per-shard summary as a left fold of ``updated`` over the
        shard's blocks in row order, so a summary recomputed from the same
        shard under the same block size is bitwise identical to the
        persisted one.
        """
        Q = np.asarray(gradients, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] == 0:
            raise StatisticsError(
                f"per-example gradients must form a non-empty 2-D matrix, "
                f"got shape {Q.shape}"
            )
        if Q.shape[1] != self.dimension:
            raise StatisticsError(
                f"gradient block has {Q.shape[1]} columns, summary has "
                f"{self.dimension}"
            )
        return GradientMomentSummary(
            rows=self.rows + int(Q.shape[0]),
            gradient_sum=self.gradient_sum + Q.sum(axis=0),
            r_factor=_triangular_factor(np.vstack([self.r_factor, Q])),
        )

    def merge(self, other: "GradientMomentSummary") -> "GradientMomentSummary":
        """Combine two disjoint summaries (stack the R factors, re-QR).

        Associative up to floating-point round-off; the statistics tier
        always merges per-shard summaries as a left fold in shard order so
        the result is reproducible bit for bit.
        """
        if other.dimension != self.dimension:
            raise StatisticsError(
                f"cannot merge summaries of dimension {self.dimension} and "
                f"{other.dimension}"
            )
        return GradientMomentSummary(
            rows=self.rows + other.rows,
            gradient_sum=self.gradient_sum + other.gradient_sum,
            r_factor=_triangular_factor(np.vstack([self.r_factor, other.r_factor])),
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {
            "rows": np.array(self.rows, dtype=np.int64),
            "gradient_sum": self.gradient_sum,
            "r_factor": self.r_factor,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "GradientMomentSummary":
        return cls(
            rows=int(arrays["rows"]),
            gradient_sum=np.asarray(arrays["gradient_sum"]),
            r_factor=np.asarray(arrays["r_factor"]),
        )


@dataclass(frozen=True)
class ProbeMomentSummary:
    """Per-probe gradient sums for the InverseGradients finite differences.

    ``gradient_sums`` has shape ``(d + 1, d)``: row 0 sums the per-example
    gradients at θ itself, row ``j + 1`` at ``θ + ε e_j``.  Everything the
    finite-difference Hessian reconstruction needs, mergeable by addition.
    """

    rows: int
    gradient_sums: np.ndarray

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise StatisticsError("a probe moment summary needs at least one row")
        sums = np.asarray(self.gradient_sums, dtype=np.float64)
        if sums.ndim != 2 or sums.shape[0] != sums.shape[1] + 1:
            raise StatisticsError(
                f"probe gradient sums must have shape (d + 1, d), got {sums.shape}"
            )
        object.__setattr__(self, "gradient_sums", sums)

    @property
    def dimension(self) -> int:
        return int(self.gradient_sums.shape[1])

    def merge(self, other: "ProbeMomentSummary") -> "ProbeMomentSummary":
        if other.dimension != self.dimension:
            raise StatisticsError(
                f"cannot merge probe summaries of dimension {self.dimension} "
                f"and {other.dimension}"
            )
        return ProbeMomentSummary(
            rows=self.rows + other.rows,
            gradient_sums=self.gradient_sums + other.gradient_sums,
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {
            "rows": np.array(self.rows, dtype=np.int64),
            "gradient_sums": self.gradient_sums,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ProbeMomentSummary":
        return cls(rows=int(arrays["rows"]), gradient_sums=np.asarray(arrays["gradient_sums"]))


@dataclass(frozen=True)
class BlockHessianSummary:
    """Row-weighted sum of per-block *data* Hessians (ClosedForm).

    Every built-in Hessian has the form ``H(θ, D) = (1/n) Σ hᵢ(θ) + βI``,
    so ``n_b · (H(θ, block) − βI)`` is the block's ``Σ hᵢ`` exactly and the
    full-dataset Hessian is recovered as ``hessian_sum / rows + βI``.
    """

    rows: int
    hessian_sum: np.ndarray

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise StatisticsError("a block Hessian summary needs at least one row")
        hessian_sum = np.asarray(self.hessian_sum, dtype=np.float64)
        if hessian_sum.ndim != 2 or hessian_sum.shape[0] != hessian_sum.shape[1]:
            raise StatisticsError(
                f"hessian sum must be a square matrix, got shape {hessian_sum.shape}"
            )
        object.__setattr__(self, "hessian_sum", hessian_sum)

    @property
    def dimension(self) -> int:
        return int(self.hessian_sum.shape[0])

    def merge(self, other: "BlockHessianSummary") -> "BlockHessianSummary":
        if other.dimension != self.dimension:
            raise StatisticsError(
                f"cannot merge Hessian summaries of dimension {self.dimension} "
                f"and {other.dimension}"
            )
        return BlockHessianSummary(
            rows=self.rows + other.rows,
            hessian_sum=self.hessian_sum + other.hessian_sum,
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {
            "rows": np.array(self.rows, dtype=np.int64),
            "hessian_sum": self.hessian_sum,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "BlockHessianSummary":
        return cls(rows=int(arrays["rows"]), hessian_sum=np.asarray(arrays["hessian_sum"]))


#: union of the three summary kinds, keyed by the tag the sidecars persist.
MomentSummary = GradientMomentSummary | ProbeMomentSummary | BlockHessianSummary

SUMMARY_KINDS: dict[str, type] = {
    "gradient": GradientMomentSummary,
    "probe": ProbeMomentSummary,
    "hessian": BlockHessianSummary,
}


def summary_kind(summary: MomentSummary) -> str:
    """The sidecar tag of a summary instance (inverse of :data:`SUMMARY_KINDS`)."""
    for kind, cls in SUMMARY_KINDS.items():
        if isinstance(summary, cls):
            return kind
    raise StatisticsError(f"unknown moment summary type {type(summary).__name__}")
