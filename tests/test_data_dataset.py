"""Unit tests for the Dataset container."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.exceptions import DataError


def make_dataset(n=10, d=3, labelled=True):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n) if labelled else None
    return Dataset(X, y, name="toy")


class TestConstruction:
    def test_shapes_and_properties(self):
        ds = make_dataset(12, 4)
        assert ds.n_rows == 12
        assert ds.n_features == 4
        assert len(ds) == 12
        assert ds.is_supervised

    def test_unsupervised(self):
        ds = make_dataset(labelled=False)
        assert not ds.is_supervised

    def test_rejects_1d_features(self):
        with pytest.raises(DataError):
            Dataset(np.zeros(5), np.zeros(5))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((0, 3)))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((5, 2)), np.zeros(4))

    def test_rejects_2d_labels(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((5, 2)), np.zeros((5, 1)))

    def test_casts_features_to_float64(self):
        ds = Dataset(np.ones((3, 2), dtype=np.int32), np.zeros(3))
        assert ds.X.dtype == np.float64


class TestTake:
    def test_take_preserves_rows(self):
        ds = make_dataset(10, 3)
        subset = ds.take(np.array([1, 3, 5]))
        assert subset.n_rows == 3
        np.testing.assert_array_equal(subset.X, ds.X[[1, 3, 5]])
        np.testing.assert_array_equal(subset.y, ds.y[[1, 3, 5]])

    def test_take_empty_raises(self):
        with pytest.raises(DataError):
            make_dataset().take(np.array([], dtype=int))

    def test_take_out_of_range_raises(self):
        with pytest.raises(DataError):
            make_dataset(5).take(np.array([10]))

    def test_head(self):
        ds = make_dataset(10)
        assert ds.head(3).n_rows == 3
        assert ds.head(100).n_rows == 10

    def test_head_zero_raises(self):
        with pytest.raises(DataError):
            make_dataset().head(0)


class TestFeatureSelection:
    def test_select_features(self):
        ds = make_dataset(8, 5)
        view = ds.select_features(np.array([0, 2]))
        assert view.n_features == 2
        np.testing.assert_array_equal(view.X, ds.X[:, [0, 2]])

    def test_select_empty_raises(self):
        with pytest.raises(DataError):
            make_dataset().select_features(np.array([], dtype=int))

    def test_select_out_of_range_raises(self):
        with pytest.raises(DataError):
            make_dataset(5, 3).select_features(np.array([3]))


class TestWithName:
    def test_with_name(self):
        assert make_dataset().with_name("renamed").name == "renamed"


class TestContentDigest:
    def test_equal_contents_equal_digest(self):
        a = make_dataset(n=20, d=4)
        b = make_dataset(n=20, d=4)
        assert a is not b
        assert a.content_digest() == b.content_digest()

    def test_name_and_metadata_do_not_affect_digest(self):
        ds = make_dataset()
        assert ds.content_digest() == ds.with_name("renamed").content_digest()

    def test_any_value_change_changes_digest(self):
        base = make_dataset(n=20, d=4)
        changed_X = base.X.copy()
        changed_X[7, 2] += 1e-9
        assert Dataset(changed_X, base.y).content_digest() != base.content_digest()
        changed_y = np.asarray(base.y).copy()
        changed_y[0] += 1
        assert Dataset(base.X, changed_y).content_digest() != base.content_digest()

    def test_shape_and_supervision_affect_digest(self):
        supervised = make_dataset(n=12, d=3)
        unsupervised = Dataset(supervised.X, None)
        assert supervised.content_digest() != unsupervised.content_digest()
        assert (
            supervised.head(6).content_digest() != supervised.content_digest()
        )

    def test_digest_is_memoised_and_stable(self):
        ds = make_dataset()
        first = ds.content_digest()
        assert ds.content_digest() is first  # memoised string, not recomputed
        assert isinstance(first, str) and len(first) == 32

    def test_noncontiguous_view_matches_contiguous_copy(self):
        X = np.arange(48, dtype=np.float64).reshape(8, 6)
        view = Dataset(X[:, ::2], np.zeros(8))
        copy = Dataset(np.ascontiguousarray(X[:, ::2]), np.zeros(8))
        assert view.content_digest() == copy.content_digest()

    def test_arrays_are_frozen_so_digest_cannot_go_stale(self):
        ds = make_dataset()
        digest = ds.content_digest()
        with pytest.raises(ValueError):
            ds.X[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.y[0] = 99
        assert ds.content_digest() == digest
