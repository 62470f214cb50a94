"""Shared fixtures for the test suite.

All fixtures are deterministic (seeded) and small enough that the whole
suite runs in a couple of minutes on a laptop.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import criteo_like, gas_like, higgs_like, mnist_like


@pytest.fixture(autouse=True)
def _isolated_repro_env(monkeypatch, tmp_path):
    """Scrub ``REPRO_*`` runtime overrides so tests never leak state.

    Every test starts with a clean environment: no ambient override can
    change cache defaults mid-suite, and no test can poison a neighbour by
    exporting one.  The one override that *re-targets* rather than
    disables: when the surrounding run enables the warm cache
    (``REPRO_WARM_CACHE_DIR`` — the CI warm-enabled tier-1 job), it is
    re-pointed at a per-test temporary directory so tests share no on-disk
    entries while the warm code path stays active.
    """
    warm_enabled = bool(os.environ.get("REPRO_WARM_CACHE_DIR", "").strip())
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    if not warm_enabled:
        yield
        return
    warm_dir = tmp_path / "warm-cache"
    monkeypatch.setenv("REPRO_WARM_CACHE_DIR", str(warm_dir))
    yield
    # Retire the per-test shared tier (and its write-behind thread) so a
    # long suite does not accumulate one tier per test in the process-wide
    # memo.
    from repro.data.store import warm_cache as warm_cache_module

    with warm_cache_module._shared_lock:
        tier = warm_cache_module._shared_tiers.pop(
            os.path.abspath(str(warm_dir)), None
        )
    if tier is not None:
        tier.close()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def regression_dataset() -> Dataset:
    """Small dense regression workload (Gas-like)."""
    return gas_like(n_rows=4_000, n_features=12, seed=7)


@pytest.fixture(scope="session")
def binary_dataset() -> Dataset:
    """Small dense binary-classification workload (HIGGS-like)."""
    return higgs_like(n_rows=5_000, n_features=14, seed=11)


@pytest.fixture(scope="session")
def sparse_binary_dataset() -> Dataset:
    """Small sparse binary-classification workload (Criteo-like)."""
    return criteo_like(n_rows=3_000, n_features=60, density=0.1, seed=13)


@pytest.fixture(scope="session")
def multiclass_dataset() -> Dataset:
    """Small multiclass workload (MNIST-like)."""
    return mnist_like(n_rows=4_000, n_features=25, n_classes=4, seed=17)


@pytest.fixture(scope="session")
def unsupervised_dataset() -> Dataset:
    """Unlabelled version of the MNIST-like workload (for PPCA)."""
    base = mnist_like(n_rows=3_000, n_features=16, n_classes=4, seed=19)
    return Dataset(base.X, None, name="mnist_like_unlabelled")


@pytest.fixture(scope="session")
def regression_splits(regression_dataset):
    return train_holdout_test_split(
        regression_dataset,
        SplitSpec(holdout_fraction=0.15, test_fraction=0.15),
        rng=np.random.default_rng(1),
    )


@pytest.fixture(scope="session")
def binary_splits(binary_dataset):
    return train_holdout_test_split(
        binary_dataset,
        SplitSpec(holdout_fraction=0.15, test_fraction=0.15),
        rng=np.random.default_rng(2),
    )


@pytest.fixture(scope="session")
def multiclass_splits(multiclass_dataset):
    return train_holdout_test_split(
        multiclass_dataset,
        SplitSpec(holdout_fraction=0.15, test_fraction=0.15),
        rng=np.random.default_rng(3),
    )


def numerical_gradient(function, theta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient used to validate analytic gradients."""
    theta = np.asarray(theta, dtype=np.float64)
    gradient = np.zeros_like(theta)
    for j in range(theta.shape[0]):
        forward = theta.copy()
        backward = theta.copy()
        forward[j] += eps
        backward[j] -= eps
        gradient[j] = (function(forward) - function(backward)) / (2 * eps)
    return gradient


@pytest.fixture(scope="session")
def gradient_checker():
    """Expose the central-difference helper to tests as a fixture."""
    return numerical_gradient
