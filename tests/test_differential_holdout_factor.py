"""Differential: Lin's diffs from the holdout factor equal the streamed ones.

Stock Lin computes every diff as ``‖R(θ_a − θ_b)‖ / s`` from the d × d
holdout factor R (``RᵀR = X_hᵀX_h / m``), which one streamed TSQR pass
builds and :func:`~repro.evaluation.streaming.holdout_factor` memoises per
holdout state.  The reference is the streamed form the factor replaced:
``_rms_accumulator`` and the stacked ``_pairwise_rms_accumulator``, folded
over the holdout blocks.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.contract import ApproximationContract
from repro.core.session import EstimationSession
from repro.data.dataset import Dataset
from repro.data.store import ShardStore
from repro.data.synthetic import gas_like
from repro.evaluation.streaming import (
    StreamingConfig,
    as_block_source,
    holdout_factor,
    streaming_fanout_pairwise_prediction_differences,
    streaming_pass_count,
    streaming_prediction_differences,
)
from repro.models.linear_regression import LinearRegressionSpec

D = 10
K = 32
SPEC = LinearRegressionSpec(regularization=1e-3)


class StreamedLinearRegression(LinearRegressionSpec):
    """Lin's diffs on the streamed accumulators."""

    def diff_accumulator(self, theta_ref, Thetas, dataset):
        return self._rms_accumulator(theta_ref, Thetas, self._difference_scale(dataset))

    def pairwise_diff_accumulator(self, Thetas_a, Thetas_b, dataset):
        return self._pairwise_rms_accumulator(
            Thetas_a, Thetas_b, self._difference_scale(dataset)
        )


def folded(accumulator, holdout):
    """``accumulator`` updated with every holdout block in order, finalized."""
    source = as_block_source(holdout)
    for start, stop in source.block_bounds(700):
        accumulator.update(source.read_block(start, stop))
    return accumulator.finalize()


def parameters(seed):
    rng = np.random.default_rng(seed)
    theta_ref = rng.normal(size=D)
    Thetas_a = theta_ref + 0.05 * rng.normal(size=(K, D))
    Thetas_b = theta_ref + 0.05 * rng.normal(size=(K, D))
    return theta_ref, Thetas_a, Thetas_b


def assert_factor_matches_reference(holdout, config, seed):
    theta_ref, Thetas_a, Thetas_b = parameters(seed)
    scale = SPEC._difference_scale(holdout)
    np.testing.assert_allclose(
        streaming_prediction_differences(SPEC, theta_ref, Thetas_a, holdout, config=config),
        folded(SPEC._rms_accumulator(theta_ref, Thetas_a, scale), holdout),
        rtol=1e-12,
        atol=0.0,
    )
    np.testing.assert_allclose(
        streaming_fanout_pairwise_prediction_differences(
            SPEC, [(Thetas_a, Thetas_b)], holdout, config=config
        )[0],
        folded(SPEC._pairwise_rms_accumulator(Thetas_a, Thetas_b, scale), holdout),
        rtol=1e-12,
        atol=0.0,
    )


@pytest.fixture(scope="module")
def data():
    return gas_like(n_rows=12_000, n_features=D, seed=61)


@pytest.mark.parametrize("n_workers", [0, 2])
@pytest.mark.parametrize("holdout_kind", ["memory", "sharded"])
def test_factor_diffs_equal_the_streamed_reference(data, tmp_path, holdout_kind, n_workers):
    holdout = data.head(9_000)
    if holdout_kind == "sharded":
        holdout = ShardStore.write(holdout, tmp_path / "holdout", shard_rows=2_500).dataset()
    assert_factor_matches_reference(holdout, StreamingConfig(n_workers=n_workers), seed=1)


def test_factor_bytes_do_not_depend_on_the_worker_count(data, tmp_path):
    store = ShardStore.write(data, tmp_path / "holdout", shard_rows=5_000)
    # Fresh sources, so each call runs its own pass instead of the memo.
    for fresh in (lambda: Dataset(data.X, data.y), store.dataset):
        factors = [
            holdout_factor(fresh(), StreamingConfig(n_workers=workers)).tobytes()
            for workers in (0, 2, 3)
        ]
        assert factors[0] == factors[1] == factors[2]


def test_factor_is_one_pass_per_holdout_state(data, tmp_path):
    directory = tmp_path / "holdout"
    ShardStore.write(data.head(6_000), directory, shard_rows=2_000)
    holdout = ShardStore.open(directory).dataset()
    theta_ref, Thetas_a, _ = parameters(seed=2)

    before = streaming_pass_count()
    for _ in range(3):
        streaming_prediction_differences(SPEC, theta_ref, Thetas_a, holdout)
    assert streaming_pass_count() - before == 1

    ShardStore.open(directory).append_shards(
        [(data.X[6_000:], data.y[6_000:])], shard_rows=2_000
    )
    assert holdout.reload()
    before = streaming_pass_count()
    assert_factor_matches_reference(holdout, None, seed=2)
    assert streaming_pass_count() - before == 1


def test_concurrent_requests_compute_the_factor_once(data):
    holdout = Dataset(data.X, data.y)
    barrier = threading.Barrier(4)
    factors = []

    def request():
        barrier.wait()
        factors.append(holdout_factor(holdout))

    before = streaming_pass_count()
    threads = [threading.Thread(target=request) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert streaming_pass_count() - before == 1
    assert all(factor is factors[0] for factor in factors)
    assert not factors[0].flags.writeable


def session(spec, train, holdout, seed):
    return EstimationSession(
        spec,
        train,
        holdout,
        initial_sample_size=300,
        n_parameter_samples=K,
        probe_batch=3,
        rng=seed,
        warm_cache=False,
    )


def test_refresh_reanswers_from_the_grown_holdout(data, tmp_path):
    # A stale factor would re-answer from the old holdout's Gram matrix.
    train = gas_like(n_rows=8_000, n_features=D, seed=62)
    contract = ApproximationContract(epsilon=0.05, delta=0.05)
    epsilons = []
    for spec in (SPEC, StreamedLinearRegression(regularization=1e-3)):
        directory = tmp_path / type(spec).__name__
        ShardStore.write(data.head(3_000), directory, shard_rows=1_000)
        holdout = ShardStore.open(directory).dataset()
        served = session(spec, train, holdout, seed=5)
        served.answer(contract)
        ShardStore.open(directory).append_shards(
            [(data.X[3_000:], data.y[3_000:])], shard_rows=1_000
        )
        refresh = served.refresh()
        assert refresh.holdout_changed
        assert refresh.holdout_rows_after == data.n_rows
        epsilons.append(refresh.reanswered[0].estimate.epsilon)
        assert_factor_matches_reference(served.holdout, None, seed=3)
    assert epsilons[0] == pytest.approx(epsilons[1], rel=1e-12, abs=0.0)


CONTRACTS = [
    ApproximationContract(epsilon=0.02, delta=0.05),
    ApproximationContract(epsilon=0.03, delta=0.1),
    ApproximationContract(epsilon=0.02, delta=0.05),
    ApproximationContract(epsilon=0.5, delta=0.05),
]


def fingerprint(result):
    return (
        result.model.theta.tobytes(),
        result.sample_size,
        result.estimated_epsilon,
        result.metadata.get("size_search_probes"),
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_coalesced_lin_searches_equal_serial_ones(data, seed):
    train, holdout = gas_like(n_rows=8_000, n_features=D, seed=63), data.head(4_000)
    fused = session(SPEC, train, holdout, seed).train_to_many(CONTRACTS)
    serial = session(SPEC, train, holdout, seed)
    assert [fingerprint(result) for result in fused.results] == [
        fingerprint(serial.train_to(contract)) for contract in CONTRACTS
    ]
    assert any(300 < result.sample_size < train.n_rows for result in fused.results)
