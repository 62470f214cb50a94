"""Unit tests for uniform sampling."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.sampling import UniformSampler
from repro.exceptions import DataError


def make_dataset(n=100, d=2):
    rng = np.random.default_rng(3)
    return Dataset(np.arange(n * d, dtype=float).reshape(n, d), rng.integers(0, 2, size=n))


class TestUniformSampler:
    def test_sample_size(self):
        sampler = UniformSampler(make_dataset(50), rng=np.random.default_rng(0))
        assert sampler.sample(10).n_rows == 10

    def test_sample_without_replacement(self):
        sampler = UniformSampler(make_dataset(30), rng=np.random.default_rng(0))
        sample = sampler.sample(30)
        # All rows distinct when sampling the whole population.
        assert len({tuple(row) for row in sample.X}) == 30

    def test_sample_too_large_raises(self):
        sampler = UniformSampler(make_dataset(10))
        with pytest.raises(DataError):
            sampler.sample(11)

    def test_sample_nonpositive_raises(self):
        sampler = UniformSampler(make_dataset(10))
        with pytest.raises(DataError):
            sampler.sample(0)

    def test_nested_samples_are_nested(self):
        sampler = UniformSampler(make_dataset(100), rng=np.random.default_rng(1))
        small = sampler.nested_sample(10)
        large = sampler.nested_sample(40)
        small_rows = {tuple(row) for row in small.X}
        large_rows = {tuple(row) for row in large.X}
        assert small_rows <= large_rows

    def test_nested_sample_is_uniformly_spread(self):
        # The prefix of a random permutation should not be biased toward the
        # head of the dataset: its mean row index should be near the middle.
        sampler = UniformSampler(make_dataset(1000, 1), rng=np.random.default_rng(2))
        sample = sampler.nested_sample(300)
        mean_row_id = sample.X[:, 0].mean()
        assert 300 < mean_row_id < 700

    def test_concurrent_nested_samples_share_one_permutation(self):
        # Regression: the permutation is built lazily; two concurrent first
        # calls to nested_sample could each build their own permutation and
        # break the nesting invariant (D0 ⊂ Dn) for one of the callers.
        # Double-checked init must leave every caller on a single
        # permutation, so any smaller sample is a prefix of any larger one.
        from concurrent.futures import ThreadPoolExecutor

        for attempt in range(5):  # several fresh samplers widen the race window
            sampler = UniformSampler(
                make_dataset(400), rng=np.random.default_rng(attempt)
            )
            sizes = [10, 50, 100, 200, 400] * 4
            with ThreadPoolExecutor(8) as pool:
                samples = list(pool.map(sampler.nested_sample, sizes))
            reference = sampler.nested_sample(400)
            for size, sample in zip(sizes, samples):
                np.testing.assert_array_equal(sample.X, reference.X[:size])

    def test_permutation_is_read_only(self):
        sampler = UniformSampler(make_dataset(20), rng=np.random.default_rng(0))
        sampler.nested_sample(5)
        assert sampler._permutation.flags.writeable is False
