"""Unit tests for train/holdout/test splitting."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.exceptions import DataError


def make_dataset(n=100):
    rng = np.random.default_rng(1)
    return Dataset(rng.normal(size=(n, 3)), rng.integers(0, 2, size=n))


class TestSplitSpec:
    def test_defaults(self):
        spec = SplitSpec()
        assert 0 < spec.holdout_fraction < 1
        assert 0 < spec.test_fraction < 1
        assert spec.holdout_fraction + spec.test_fraction < 1

    def test_negative_fraction_rejected(self):
        with pytest.raises(DataError):
            SplitSpec(holdout_fraction=-0.1)

    def test_fractions_must_leave_training_data(self):
        with pytest.raises(DataError):
            SplitSpec(holdout_fraction=0.6, test_fraction=0.5)


class TestSplit:
    def test_sizes_add_up(self):
        splits = train_holdout_test_split(
            make_dataset(200), SplitSpec(0.1, 0.2), rng=np.random.default_rng(0)
        )
        assert splits.train.n_rows + splits.holdout.n_rows + splits.test.n_rows == 200
        assert splits.holdout.n_rows == 20
        assert splits.test.n_rows == 40

    def test_disjoint(self):
        data = make_dataset(300)
        # Tag each row with a unique value so overlap is detectable.
        data = Dataset(np.arange(300, dtype=float).reshape(-1, 1), data.y)
        splits = train_holdout_test_split(data, SplitSpec(0.2, 0.2), rng=np.random.default_rng(0))
        train_ids = set(splits.train.X[:, 0])
        holdout_ids = set(splits.holdout.X[:, 0])
        test_ids = set(splits.test.X[:, 0])
        assert not train_ids & holdout_ids
        assert not train_ids & test_ids
        assert not holdout_ids & test_ids

    def test_reproducible_given_seeded_rng(self):
        data = make_dataset(150)
        a = train_holdout_test_split(data, rng=np.random.default_rng(5))
        b = train_holdout_test_split(data, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.train.X, b.train.X)
        np.testing.assert_array_equal(a.holdout.X, b.holdout.X)

    def test_too_small_dataset_raises(self):
        with pytest.raises(DataError):
            train_holdout_test_split(make_dataset(2), SplitSpec(0.4, 0.4))

    def test_names_carry_split_suffix(self):
        splits = train_holdout_test_split(make_dataset(100), rng=np.random.default_rng(0))
        assert splits.train.name.endswith("/train")
        assert splits.holdout.name.endswith("/holdout")
        assert splits.test.name.endswith("/test")
