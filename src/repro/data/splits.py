"""Train / holdout / test splitting.

BlinkML needs three disjoint views of the data (Section 2.1 and 2.3):

* the *training* portion, from which the initial sample ``D0`` and the final
  sample ``Dn`` are drawn;
* a *holdout* set, not used for training, on which the Model Accuracy
  Estimator evaluates the prediction difference ``v(m_n)``;
* a *test* set used only for reporting generalisation error (Section 5.5).

``train_holdout_test_split`` produces all three with a single shuffle so the
splits are disjoint and reproducible given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import HOLDOUT_FRACTION, TEST_FRACTION
from repro.data.dataset import Dataset
from repro.exceptions import DataError


@dataclass(frozen=True)
class SplitSpec:
    """Fractions of rows assigned to the holdout and test splits.

    The remaining rows form the training split.  Fractions must be
    non-negative and sum to strictly less than one.
    """

    holdout_fraction: float = HOLDOUT_FRACTION
    test_fraction: float = TEST_FRACTION

    def __post_init__(self) -> None:
        if self.holdout_fraction < 0 or self.test_fraction < 0:
            raise DataError("split fractions must be non-negative")
        if self.holdout_fraction + self.test_fraction >= 1.0:
            raise DataError("holdout + test fractions must leave room for training data")


@dataclass(frozen=True)
class DataSplits:
    """The three disjoint views produced by :func:`train_holdout_test_split`."""

    train: Dataset
    holdout: Dataset
    test: Dataset


def train_holdout_test_split(
    dataset: Dataset,
    spec: SplitSpec | None = None,
    rng: np.random.Generator | None = None,
) -> DataSplits:
    """Shuffle ``dataset`` once and cut it into train / holdout / test views.

    Parameters
    ----------
    dataset:
        The full dataset D.
    spec:
        Fractions for holdout and test; defaults to 10 % / 20 % as in the
        paper's setup (80 % training, Section 5.1, with a 10 % holdout carved
        out of the training side for accuracy estimation).
    rng:
        NumPy random generator; a fresh default generator is used when
        omitted, which makes the split non-deterministic.  Pass a seeded
        generator for reproducibility.
    """
    spec = spec or SplitSpec()
    rng = rng or np.random.default_rng()

    n = dataset.n_rows
    n_holdout = int(round(n * spec.holdout_fraction))
    n_test = int(round(n * spec.test_fraction))
    n_train = n - n_holdout - n_test
    if n_train <= 0:
        raise DataError(
            f"split leaves no training rows (n={n}, holdout={n_holdout}, test={n_test})"
        )
    if n_holdout <= 0:
        raise DataError("split must reserve at least one holdout row")
    if n_test <= 0:
        raise DataError("split must reserve at least one test row")

    permutation = rng.permutation(n)
    train_idx = permutation[:n_train]
    holdout_idx = permutation[n_train : n_train + n_holdout]
    test_idx = permutation[n_train + n_holdout :]

    return DataSplits(
        train=dataset.take(train_idx).with_name(f"{dataset.name}/train"),
        holdout=dataset.take(holdout_idx).with_name(f"{dataset.name}/holdout"),
        test=dataset.take(test_idx).with_name(f"{dataset.name}/test"),
    )
