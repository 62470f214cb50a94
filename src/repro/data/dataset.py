"""In-memory dataset container used throughout the library.

A :class:`Dataset` bundles a dense feature matrix ``X`` (N rows, d columns)
with an optional label vector ``y`` (absent for unsupervised models such as
PPCA).  It is deliberately immutable: every transformation (subsetting,
sampling, feature selection) returns a new ``Dataset`` that shares the
underlying NumPy buffers via views wherever possible.

The class is the unit of exchange between the data substrate, the model
trainers and the BlinkML coordinator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DataError
from repro.linalg.utils import freeze


# ----------------------------------------------------------------------
# Content-digest byte format — THE single source of truth.
#
# Everything that fingerprints dataset contents (Dataset.content_digest,
# the shard store's per-shard digests, and its streamed manifest-level
# digest in repro.data.store.shard_store) feeds a hasher through these
# helpers, so a sharded and an in-memory copy of the same data can never
# diverge.  Any change here changes every digest in lockstep.
# ----------------------------------------------------------------------
def content_hasher() -> "hashlib.blake2b":
    """The hasher every content digest uses (the digest is its hexdigest)."""
    return hashlib.blake2b(digest_size=16)


def hash_feature_header(
    hasher: "hashlib.blake2b", shape: tuple, dtype: "np.typing.DTypeLike"
) -> None:
    """Feed the feature matrix's shape/dtype header (precedes the X bytes)."""
    hasher.update(str(tuple(shape)).encode())
    hasher.update(np.dtype(dtype).str.encode())


def hash_label_header(
    hasher: "hashlib.blake2b",
    shape: tuple | None,
    dtype: "np.typing.DTypeLike" = None,
) -> None:
    """Feed the label header (follows the X bytes, precedes the y bytes).

    ``shape=None`` marks an unsupervised dataset (no y bytes follow).
    """
    if shape is None:
        hasher.update(b"|unsupervised")
    else:
        hasher.update(f"|y:{tuple(shape)}:{np.dtype(dtype).str}".encode())


@dataclass(frozen=True)
class Dataset:
    """A (multi-)set of training examples ``{(x_i, y_i)}``.

    Parameters
    ----------
    X:
        Feature matrix of shape ``(n_rows, n_features)``.
    y:
        Label vector of shape ``(n_rows,)`` or ``None`` for unsupervised
        tasks.  Classification models expect integer labels; regression
        models expect floats.
    name:
        Optional human-readable name (used in experiment reports).
    """

    X: np.ndarray
    y: np.ndarray | None = None
    name: str = "dataset"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise DataError(f"X must be 2-dimensional, got shape {X.shape}")
        if X.shape[0] == 0:
            raise DataError("dataset must contain at least one row")
        # Enforce the documented immutability: the arrays are published
        # read-only, so an in-place edit cannot silently invalidate shared
        # state derived from them — most critically the memoised
        # content_digest() the serving registry uses to detect changed
        # training data.  (np.asarray avoids copying, so the freeze also
        # applies to a float64 array the caller passed in; mutate a .copy()
        # instead.)
        object.__setattr__(self, "X", freeze(X))
        if self.y is not None:
            y = np.asarray(self.y)
            if y.ndim != 1:
                raise DataError(f"y must be 1-dimensional, got shape {y.shape}")
            if y.shape[0] != X.shape[0]:
                raise DataError(
                    f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
                )
            object.__setattr__(self, "y", freeze(y))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of examples (the paper's N or n depending on context)."""
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        """Number of features d."""
        return int(self.X.shape[1])

    @property
    def is_supervised(self) -> bool:
        """Whether labels are present."""
        return self.y is not None

    def __len__(self) -> int:
        return self.n_rows

    def content_digest(self) -> str:
        """A stable hex digest of the dataset *contents* (X, y, shapes, dtypes).

        Two datasets carrying equal arrays produce the same digest no matter
        how they were constructed (name and metadata are excluded); any
        change to a value, shape or dtype changes it.  The cross-session
        registry (:mod:`repro.core.registry`) fingerprints training data
        with this so a changed training set can never be served stale
        cached answers.

        The digest is computed once per ``Dataset`` object and memoised —
        safe because the arrays are published read-only at construction,
        so the contents cannot change under the memo.
        """
        cached = getattr(self, "_content_digest", None)
        if cached is not None:
            return cached
        hasher = content_hasher()
        hash_feature_header(hasher, self.X.shape, self.X.dtype)
        # Feed the array buffers to the hash directly (zero-copy for the
        # already-contiguous common case; .tobytes() would transiently
        # double the dataset's memory).
        hasher.update(np.ascontiguousarray(self.X))
        if self.y is None:
            hash_label_header(hasher, None)
        else:
            hash_label_header(hasher, self.y.shape, self.y.dtype)
            hasher.update(np.ascontiguousarray(self.y))
        digest = hasher.hexdigest()
        object.__setattr__(self, "_content_digest", digest)
        return digest

    def label_std(self) -> float:
        """Population standard deviation of the labels, ``np.std(y)``.

        The normalised regression families scale every diff by it.  Like
        :meth:`content_digest` it is computed once per ``Dataset`` object
        and memoised, which the read-only arrays make safe.
        """
        cached = getattr(self, "_label_std", None)
        if cached is not None:
            return cached
        if self.y is None:
            raise DataError("dataset has no labels (unsupervised)")
        scale = float(np.std(self.y))
        object.__setattr__(self, "_label_std", scale)
        return scale

    # ------------------------------------------------------------------
    # Transformations (all return new Dataset objects)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> Dataset:
        """Return the subset of rows addressed by ``indices`` (kept in order)."""
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size == 0:
            raise DataError("cannot take an empty subset of a dataset")
        if indices.min() < 0 or indices.max() >= self.n_rows:
            raise DataError("subset indices out of range")
        y = None if self.y is None else self.y[indices]
        return Dataset(self.X[indices], y, name=self.name, metadata=dict(self.metadata))

    def head(self, n: int) -> Dataset:
        """Return the first ``n`` rows."""
        if n <= 0:
            raise DataError("head() requires n >= 1")
        n = min(n, self.n_rows)
        return self.take(np.arange(n))

    def select_features(self, feature_indices: np.ndarray) -> Dataset:
        """Return a dataset restricted to the given feature columns.

        Used by the hyperparameter-optimisation harness (Section 5.7), which
        searches over random feature subsets.
        """
        feature_indices = np.asarray(feature_indices, dtype=np.intp)
        if feature_indices.size == 0:
            raise DataError("cannot select an empty feature set")
        if feature_indices.min() < 0 or feature_indices.max() >= self.n_features:
            raise DataError("feature indices out of range")
        return Dataset(
            self.X[:, feature_indices],
            self.y,
            name=self.name,
            metadata=dict(self.metadata),
        )

    def with_name(self, name: str) -> Dataset:
        """Return a copy carrying a new name."""
        return Dataset(self.X, self.y, name=name, metadata=dict(self.metadata))
