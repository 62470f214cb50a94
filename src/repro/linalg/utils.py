"""Small linear-algebra helpers shared by the statistics and sampling code."""

from __future__ import annotations

import numpy as np

from repro.exceptions import StatisticsError


def freeze(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only in place and return it.

    The single blessed way the codebase publishes an immutable ndarray —
    cached difference vectors, sampler base draws, dataset columns, the
    nested-sampling permutation.  Aliasing bugs where one caller's in-place
    edit corrupted another caller's cached view were fixed one at a time in
    PRs 2–3; routing every publication through this helper lets the
    invariant linter (REP002, see ``docs/invariants.md``) verify the
    discipline mechanically instead of by reviewer memory.

    Freezing is idempotent, and intentionally *in place* rather than on a
    copy: the point is that the caller's own reference is read-only too,
    so no writable alias of a published array survives.  Callers that need
    a writable version afterwards must ``.copy()``.
    """
    array.flags.writeable = False  # repro-lint: disable=REP002 (the one blessed writeable-flag site; every other module must call freeze())
    return array


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(A + Aᵀ) / 2`` of a square matrix.

    Numerical Hessians and covariances accumulate tiny asymmetries, and
    the ``eigh`` in :meth:`FactoredCovariance.from_dense
    <repro.linalg.covariance.FactoredCovariance.from_dense>` reads only one
    triangle of its input, so the dense statistics paths symmetrise first.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise StatisticsError(f"expected a square matrix, got shape {matrix.shape}")
    return 0.5 * (matrix + matrix.T)


def frobenius_distance(a: np.ndarray, b: np.ndarray, normalize: bool = True) -> float:
    """Average (per-entry) Frobenius distance between two matrices.

    Matches the accuracy metric used in Section 5.6:
    ``(1/d²) ‖C_t − C_e‖_F`` when ``normalize`` is true.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise StatisticsError(f"shape mismatch: {a.shape} vs {b.shape}")
    distance = float(np.linalg.norm(a - b, ord="fro"))
    if normalize:
        distance /= a.shape[0] * a.shape[1]
    return distance
