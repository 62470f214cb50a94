"""Tests for the shared linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import StatisticsError
from repro.linalg.utils import frobenius_distance, symmetrize


class TestSymmetrize:
    def test_result_is_symmetric(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(5, 5))
        S = symmetrize(A)
        np.testing.assert_allclose(S, S.T)

    def test_symmetric_input_unchanged(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(symmetrize(A), A)

    def test_rejects_non_square(self):
        with pytest.raises(StatisticsError):
            symmetrize(np.zeros((2, 3)))

    @given(arrays(np.float64, (4, 4), elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_property_idempotent(self, A):
        once = symmetrize(A)
        twice = symmetrize(once)
        np.testing.assert_allclose(once, twice)


class TestFrobeniusDistance:
    def test_zero_for_identical(self):
        A = np.arange(9, dtype=float).reshape(3, 3)
        assert frobenius_distance(A, A) == 0.0

    def test_normalisation(self):
        A = np.zeros((2, 2))
        B = np.ones((2, 2))
        assert frobenius_distance(A, B, normalize=False) == pytest.approx(2.0)
        assert frobenius_distance(A, B, normalize=True) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(StatisticsError):
            frobenius_distance(np.zeros((2, 2)), np.zeros((3, 3)))
