"""Uniform random sampling over datasets.

BlinkML deliberately restricts itself to *uniform* random sampling
(Section 1, "Difference from Previous Work"): unlike coreset or
leverage-score approaches, no sampling probabilities have to be tailored to
the model, which is what lets a single system serve every MLE-based model.

:class:`UniformSampler` draws size-n uniform samples without replacement
from a :class:`~repro.data.dataset.Dataset`, with support for nested
sampling (a size-n' sample that contains an earlier size-n sample, which is
how the coordinator grows the initial sample into the final one without
discarding already-seen rows).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.data.dataset import Dataset, content_hasher
from repro.exceptions import DataError
from repro.linalg.utils import freeze

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.data.store import ShardedDataset


class UniformSampler:
    """Draw uniform random samples (without replacement) from a dataset.

    Parameters
    ----------
    dataset:
        The training portion of the data: an in-memory :class:`Dataset` or
        an out-of-core :class:`~repro.data.store.ShardedDataset`.  Only
        ``n_rows`` and ``take(indices)`` are used, so samples drawn from a
        shard store gather exactly the selected rows (one shard resident at
        a time) — the row data itself is never materialised.  The *index*
        machinery, however, is O(N): ``nested_sample`` keeps a full random
        permutation (8 bytes per population row) and ``sample`` uses
        ``Generator.choice(replace=False)``, so a 10⁹-row store still
        costs ~8 GB of index memory.
    rng:
        Seeded NumPy generator for reproducibility.
    """

    def __init__(
        self,
        dataset: Dataset | ShardedDataset,
        rng: np.random.Generator | None = None,
    ):
        self._dataset = dataset
        self._rng = rng or np.random.default_rng()
        # A lazily-built random permutation of all row indices.  Sampling a
        # prefix of a fixed permutation yields uniform samples with the
        # useful property that samples of increasing size are nested, which
        # mirrors how a database cursor over a shuffled table behaves.
        # Built under a lock with a double-checked read: if two concurrent
        # nested_sample calls could each build their own permutation, the
        # nesting invariant (D0 ⊂ Dn) would silently break for whichever
        # caller's permutation lost the publication race.  The same lock
        # serialises the other consumer of the shared generator (sample), so
        # concurrent callers cannot interleave its bit-stream mid-draw.
        self._permutation: np.ndarray | None = None  # guarded-by: _rng_lock  # repro-lint: frozen-attr
        self._rng_lock = threading.Lock()
        # Memo for permutation_digest(): the permutation never changes once
        # built, so racing writers store the same string.
        self._permutation_digest: str | None = None

    @property
    def dataset(self) -> Dataset | ShardedDataset:
        return self._dataset

    def _ensure_permutation(self) -> np.ndarray:
        permutation = self._permutation
        if permutation is None:
            with self._rng_lock:
                permutation = self._permutation
                if permutation is None:
                    permutation = freeze(self._rng.permutation(self._dataset.n_rows))
                    self._permutation = permutation
        return permutation

    def permutation_digest(self) -> str:
        """Content digest of the nested-sampling permutation, memoised.

        ``nested_sample(n)`` takes the first n rows of this permutation, so
        for a given dataset the digest and n fix the sample's rows; warm
        model keys fold it in.  The permutation holds N int64s, so it is
        hashed once per sampler.  If no nested sample was drawn yet, this
        builds the permutation, consuming the generator as that first
        ``nested_sample`` call would have.
        """
        digest = self._permutation_digest
        if digest is None:
            hasher = content_hasher()
            hasher.update(self._ensure_permutation())
            digest = hasher.hexdigest()
            self._permutation_digest = digest
        return digest

    def sample(self, n: int) -> Dataset:
        """Return an independent size-``n`` uniform sample without replacement."""
        if n <= 0:
            raise DataError("sample size must be positive")
        if n > self._dataset.n_rows:
            raise DataError(
                f"sample size {n} exceeds population size {self._dataset.n_rows}"
            )
        with self._rng_lock:
            indices = self._rng.choice(self._dataset.n_rows, size=n, replace=False)
        return self._dataset.take(indices).with_name(f"{self._dataset.name}/sample[{n}]")

    def nested_sample(self, n: int) -> Dataset:
        """Return the first ``n`` rows of a fixed random permutation.

        Successive calls with increasing ``n`` return nested samples: the
        size-n0 initial training set D0 is a prefix of the size-n final
        training set Dn.  This matches the coordinator workflow in
        Section 2.3 where the final sample subsumes the initial one.
        """
        if n <= 0:
            raise DataError("sample size must be positive")
        if n > self._dataset.n_rows:
            raise DataError(
                f"sample size {n} exceeds population size {self._dataset.n_rows}"
            )
        permutation = self._ensure_permutation()
        return self._dataset.take(permutation[:n]).with_name(
            f"{self._dataset.name}/nested[{n}]"
        )
