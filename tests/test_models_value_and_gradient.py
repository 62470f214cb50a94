"""The built-in gradient equals the row mean to rounding, and the fused call returns its bytes.

Every built-in family computes the data gradient of Eq. (3) as one GEMM
over 4,096-row blocks (``Xᵀr / n`` and its ME and PPCA forms) instead of
averaging the per-example rows.  That sums in another order, so it equals
the mean of :meth:`~ModelClassSpec.per_example_gradients` to rounding, not
bitwise.  The fused :meth:`ModelClassSpec.value_and_gradient` must still
return the bytes of :meth:`~ModelClassSpec.loss` and
:meth:`~ModelClassSpec.gradient`.  These tests pin both:

* over four layouts of X: C-ordered, ``select_features`` (column-major),
  a row-strided view and a column-strided view;
* over sizes on and around the 4,096-row block boundaries, up to 20,000
  rows, and a single parameter;
* at the initial θ, the fitted θ, and the fitted θ perturbed by 1e-3, 0.1
  and 1;
* on a zero feature column whose rows are all ``-0.0``.

A fit through the fused objective must then take exactly the steps of a
fit through ``loss`` and ``gradient``, and land within 1e-8 of a fit
through the per-example mean.  The fused call must never hold the
``(n, p)`` per-example matrix.
"""

from __future__ import annotations

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.models.base import _BLAS_ROWS, ModelClassSpec
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.models.max_entropy import MaxEntropySpec
from repro.models.poisson_regression import PoissonRegressionSpec
from repro.models.ppca import PPCASpec
from repro.optim.base import FunctionObjective
from repro.optim.driver import minimize

FAMILIES = ["lr", "lin", "poisson", "me", "ppca"]
LAYOUTS = ["c", "select_features", "row_strided", "column_strided"]
PERTURBATIONS = [1e-3, 0.1, 1.0]
SIZES = [1, _BLAS_ROWS, _BLAS_ROWS + 1, 3 * _BLAS_ROWS + 7, 20_000]


def make_spec(family: str, n_features: int) -> ModelClassSpec:
    if family == "lr":
        return LogisticRegressionSpec()
    if family == "lin":
        return LinearRegressionSpec(noise_variance=0.7)
    if family == "poisson":
        return PoissonRegressionSpec()
    if family == "me":
        return MaxEntropySpec(n_classes=3)
    return PPCASpec(n_factors=min(2, n_features), regularization=1e-3)


def make_values(family: str, n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray | None]:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    weights = rng.normal(size=d)
    if family == "lr":
        return X, (X @ weights + rng.normal(size=n) > 0).astype(np.int64)
    if family == "lin":
        return X, X @ weights + rng.normal(scale=0.5, size=n)
    if family == "poisson":
        return X, rng.poisson(np.exp(0.3 * (X @ weights))).astype(np.float64)
    if family == "me":
        return X, np.argmax(X @ rng.normal(size=(d, 3)) + rng.gumbel(size=(n, 3)), axis=1)
    return X, None


def with_layout(X: np.ndarray, y: np.ndarray | None, layout: str) -> Dataset:
    """A dataset holding exactly the values of ``X`` in the given layout."""
    n, d = X.shape
    if layout == "c":
        return Dataset(X.copy(), y)
    if layout == "select_features":
        wide = np.zeros((n, d + 1))
        wide[:, 1:] = X
        return Dataset(wide, y).select_features(np.arange(1, d + 1))
    if layout == "row_strided":
        tall = np.zeros((2 * n, d))
        tall[::2] = X
        return Dataset(tall[::2], y)
    wide = np.zeros((n, 2 * d))
    wide[:, ::2] = X
    return Dataset(wide[:, ::2], y)


def n_features_for(family: str, single_parameter: bool) -> int:
    if single_parameter:
        return 1
    return 4 if family in ("me", "ppca") else 6


@lru_cache(maxsize=None)
def fitted_theta(family: str, n: int, d: int) -> bytes:
    spec = make_spec(family, d)
    dataset = with_layout(*make_values(family, n, d, seed=n), "c")
    return spec.fit(dataset).theta.tobytes()


def parameter_points(family: str, dataset: Dataset, d: int) -> list[np.ndarray]:
    spec = make_spec(family, d)
    fitted = np.frombuffer(fitted_theta(family, dataset.n_rows, d))
    rng = np.random.default_rng(dataset.n_rows + d)
    points = [spec.initial_parameters(dataset), fitted]
    points += [fitted + scale * rng.normal(size=fitted.shape) for scale in PERTURBATIONS]
    return points


def assert_fused_matches_reference(spec: ModelClassSpec, theta: np.ndarray, dataset: Dataset) -> None:
    value, gradient = spec.value_and_gradient(theta, dataset)
    reference_value = spec.loss(theta, dataset)
    reference_gradient = spec.gradient(theta, dataset)
    assert np.float64(value).tobytes() == np.float64(reference_value).tobytes()
    assert gradient.dtype == reference_gradient.dtype
    assert gradient.shape == reference_gradient.shape
    assert gradient.tobytes() == reference_gradient.tobytes()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_fused_objective_is_bitwise_the_reference(family, layout):
    d = n_features_for(family, single_parameter=False)
    spec = make_spec(family, d)
    for n in SIZES:
        dataset = with_layout(*make_values(family, n, d, seed=n), layout)
        for theta in parameter_points(family, dataset, d):
            assert_fused_matches_reference(spec, theta, dataset)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_gradient_is_the_row_mean_to_rounding(family, layout):
    d = n_features_for(family, single_parameter=False)
    spec = make_spec(family, d)
    for n in SIZES:
        dataset = with_layout(*make_values(family, n, d, seed=n), layout)
        for theta in parameter_points(family, dataset, d):
            rows = spec.per_example_gradients(theta, dataset)
            data_gradient = spec.gradient(theta, dataset) - spec.regularizer_gradient(theta)
            gap = np.max(np.abs(data_gradient - rows.mean(axis=0)))
            assert gap <= 1e-11 * np.max(np.abs(rows))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("family", ["lr", "lin", "poisson", "ppca"])
def test_single_parameter_is_bitwise_the_reference(family, layout):
    # With p = 1, X is a single column and every product in the gradient
    # is a matrix-vector or dot product; max-entropy always has p = K·d ≥ 2.
    spec = make_spec(family, 1)
    assert spec.n_parameters(Dataset(np.zeros((1, 1)), np.zeros(1))) == 1
    for n in SIZES:
        dataset = with_layout(*make_values(family, n, 1, seed=n), layout)
        for theta in parameter_points(family, dataset, 1):
            assert_fused_matches_reference(spec, theta, dataset)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("family", ["lr", "lin", "poisson", "me"])
def test_negative_zero_rows_fold_like_the_reference(family, layout):
    # A zero feature column times an all-negative residual makes every row
    # -0.0 there.  The row mean keeps that sign and a GEMM sum need not; the
    # fused call must carry the gradient's sign of zero either way.
    d = n_features_for(family, single_parameter=False)
    spec = make_spec(family, d)
    n = SIZES[3]
    X, _ = make_values(family, n, d, seed=3)
    X[:, 1] = 0.0
    y = {
        "lr": np.ones(n, dtype=np.int64),  # σ(0) − 1 < 0
        "lin": 1.0 + np.abs(X[:, 0]),  # 0 − y < 0
        "poisson": np.full(n, 2.0),  # e⁰ − 2 < 0
        "me": np.zeros(n, dtype=np.int64),  # p₀ − 1 < 0 in class 0
    }[family]
    dataset = with_layout(X, y, layout)
    theta = spec.initial_parameters(dataset)
    rows = spec.per_example_gradients(theta, dataset)
    assert np.all(np.signbit(rows[:, 1]))
    assert np.all(rows[:, 1] == 0.0)
    assert_fused_matches_reference(spec, theta, dataset)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_fit_takes_the_reference_steps(family, layout):
    d = n_features_for(family, single_parameter=False)
    spec = make_spec(family, d)
    dataset = with_layout(*make_values(family, SIZES[3], d, seed=5), layout)
    fused = spec.fit(dataset)
    reference = minimize(
        FunctionObjective(
            lambda theta: spec.loss(theta, dataset),
            lambda theta: spec.gradient(theta, dataset),
        ),
        spec.initial_parameters(dataset),
    )
    assert fused.optimization is not None
    assert fused.theta.tobytes() == reference.theta.tobytes()
    assert fused.optimization.n_iterations == reference.n_iterations
    assert fused.optimization.n_function_evaluations == reference.n_function_evaluations


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_lands_where_the_row_mean_fit_does(family):
    d = n_features_for(family, single_parameter=False)
    spec = make_spec(family, d)
    dataset = with_layout(*make_values(family, SIZES[3], d, seed=5), "c")
    fitted = spec.fit(dataset).theta
    row_mean = minimize(
        FunctionObjective(
            lambda theta: spec.loss(theta, dataset),
            lambda theta: ModelClassSpec.gradient(spec, theta, dataset),
        ),
        spec.initial_parameters(dataset),
    )
    assert np.max(np.abs(fitted - row_mean.theta)) <= 1e-8 * np.max(np.abs(row_mean.theta))


@pytest.mark.parametrize(
    "family, d, make",
    [
        ("lin", 40, lambda: LinearRegressionSpec()),
        ("me", 20, lambda: MaxEntropySpec(n_classes=5)),
        ("ppca", 24, lambda: PPCASpec(n_factors=8)),
    ],
)
def test_fused_objective_never_holds_the_per_example_matrix(family, d, make):
    n = 20_000
    dataset = Dataset(*make_values(family, n, d, seed=11))
    spec = make()
    theta = spec.initial_parameters(dataset) + 0.01
    spec.value_and_gradient(theta, dataset)
    tracemalloc.start()
    try:
        spec.value_and_gradient(theta, dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_example_bytes = n * spec.n_parameters(dataset) * 8
    assert peak < 0.5 * per_example_bytes
