"""Property tests for the streaming sharded holdout engine.

The acceptance bar for the streamed batched ``diff``: sharded accumulation
must agree with the scalar ``prediction_difference`` loop within 1e-12 for
all five model families and arbitrary block sizes, serial or thread-fanned.
And the fold rule: for a given source, every worker count gives diffs and
statistics bitwise equal to the serial fold.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.statistics import StatisticsMethod, compute_statistics
from repro.data.dataset import Dataset
from repro.data.store import ShardStore
from repro.data.synthetic import gas_like, higgs_like, mnist_like
from repro.evaluation.streaming import (
    StreamingConfig,
    as_block_source,
    streaming_fanout_pairwise_prediction_differences,
    streaming_prediction_differences,
)
from repro.exceptions import DataError, ModelSpecError
from repro.models.base import (
    BlockSumDiffAccumulator,
    ModelClassSpec,
    PrecomputedDiffAccumulator,
)
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.models.max_entropy import MaxEntropySpec
from repro.models.poisson_regression import PoissonRegressionSpec
from repro.models.ppca import PPCASpec

N_ROWS = 700
K = 6


def _family(name):
    """(spec, holdout, n_parameters) for one of the five model families."""
    if name == "lin":
        data = gas_like(n_rows=N_ROWS, n_features=8, seed=21)
        return LinearRegressionSpec(), data, 8
    if name == "lr":
        data = higgs_like(n_rows=N_ROWS, n_features=8, seed=22)
        return LogisticRegressionSpec(), data, 8
    if name == "me":
        data = mnist_like(n_rows=N_ROWS, n_features=6, n_classes=3, seed=23)
        spec = MaxEntropySpec(n_classes=3)
        spec.n_parameters(data)
        return spec, data, 18
    if name == "poisson":
        base = gas_like(n_rows=N_ROWS, n_features=8, seed=24)
        counts = np.abs(np.round(base.y - base.y.min())).astype(np.float64)
        return PoissonRegressionSpec(), Dataset(base.X, counts), 8
    if name == "ppca":
        base = mnist_like(n_rows=N_ROWS, n_features=10, n_classes=3, seed=25)
        return PPCASpec(n_factors=2), Dataset(base.X - base.X.mean(axis=0), None), 20
    raise KeyError(name)


FAMILIES = ("lin", "lr", "me", "poisson", "ppca")
_CACHE = {name: _family(name) for name in FAMILIES}


def _scalar_diffs(spec, theta_ref, Thetas, holdout):
    """The scalar reference: ``prediction_difference`` against θ_ref, pair by pair."""
    return np.array([spec.prediction_difference(theta_ref, theta, holdout) for theta in Thetas])


def _scalar_pairwise_diffs(spec, Thetas_a, Thetas_b, holdout):
    """The scalar reference for the elementwise form ``v(Thetas_a[i], Thetas_b[i])``."""
    return np.array(
        [spec.prediction_difference(a, b, holdout) for a, b in zip(Thetas_a, Thetas_b)]
    )


def _parameter_batches(p, seed):
    rng = np.random.default_rng(seed)
    theta_ref = 0.1 * rng.normal(size=p)
    Thetas = theta_ref[None, :] + 0.05 * rng.normal(size=(K, p))
    Thetas_b = theta_ref[None, :] + 0.05 * rng.normal(size=(K, p))
    return theta_ref, Thetas, Thetas_b


class TestStreamingMatchesMaterialised:
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=12, deadline=None)
    @given(
        block_rows=st.integers(min_value=1, max_value=2 * N_ROWS),
        n_workers=st.sampled_from([0, 2, 5]),
    )
    def test_reference_diffs_agree(self, family, block_rows, n_workers):
        spec, holdout, p = _CACHE[family]
        theta_ref, Thetas, _ = _parameter_batches(p, seed=31)
        expected = _scalar_diffs(spec, theta_ref, Thetas, holdout)
        streamed = streaming_prediction_differences(
            spec, theta_ref, Thetas, holdout,
            config=StreamingConfig(block_rows=block_rows, n_workers=n_workers),
        )
        np.testing.assert_allclose(streamed, expected, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=12, deadline=None)
    @given(
        block_rows=st.integers(min_value=1, max_value=2 * N_ROWS),
        n_workers=st.sampled_from([0, 3]),
    )
    def test_pairwise_diffs_agree(self, family, block_rows, n_workers):
        spec, holdout, p = _CACHE[family]
        _, Thetas, Thetas_b = _parameter_batches(p, seed=32)
        expected = _scalar_pairwise_diffs(spec, Thetas, Thetas_b, holdout)
        streamed = streaming_fanout_pairwise_prediction_differences(
            spec, [(Thetas, Thetas_b)], holdout,
            config=StreamingConfig(block_rows=block_rows, n_workers=n_workers),
        )[0]
        np.testing.assert_allclose(streamed, expected, atol=1e-12)

    def test_classification_counts_are_bitwise_exact(self):
        # Disagreement metrics accumulate integer counts, so sharding cannot
        # change the result at all, not just within tolerance.
        spec, holdout, p = _CACHE["lr"]
        theta_ref, Thetas, _ = _parameter_batches(p, seed=33)
        expected = _scalar_diffs(spec, theta_ref, Thetas, holdout)
        for block_rows in (1, 7, 64, 1000):
            streamed = streaming_prediction_differences(
                spec, theta_ref, Thetas, holdout,
                config=StreamingConfig(block_rows=block_rows),
            )
            assert np.array_equal(streamed, expected)


class TestGenericFallback:
    def test_custom_spec_without_overrides_still_works(self):
        # A custom ModelClassSpec that only implements the scalar interface
        # gets the scalar-loop fallback accumulator: the family's streamed
        # results, without the memory bound.
        class LoopOnlySpec(LinearRegressionSpec):
            diff_accumulator = ModelClassSpec.diff_accumulator
            pairwise_diff_accumulator = ModelClassSpec.pairwise_diff_accumulator

        spec, holdout, p = _CACHE["lin"]
        loop_spec = LoopOnlySpec()
        theta_ref, Thetas, Thetas_b = _parameter_batches(p, seed=34)
        np.testing.assert_allclose(
            streaming_prediction_differences(
                loop_spec, theta_ref, Thetas, holdout,
                config=StreamingConfig(block_rows=13, n_workers=2),
            ),
            streaming_prediction_differences(spec, theta_ref, Thetas, holdout),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            streaming_fanout_pairwise_prediction_differences(
                loop_spec, [(Thetas, Thetas_b)], holdout,
                config=StreamingConfig(block_rows=13),
            )[0],
            streaming_fanout_pairwise_prediction_differences(
                spec, [(Thetas, Thetas_b)], holdout
            )[0],
            atol=1e-12,
        )


class TestMetricsRouting:
    def test_model_agreements_streaming_option_matches_default(self):
        from repro.evaluation.metrics import model_agreements

        spec, holdout, p = _CACHE["lr"]
        theta_ref, Thetas, _ = _parameter_batches(p, seed=38)
        default = model_agreements(spec, Thetas, theta_ref, holdout)
        streamed = model_agreements(
            spec, Thetas, theta_ref, holdout,
            streaming=StreamingConfig(block_rows=50),
        )
        np.testing.assert_allclose(streamed, default, atol=1e-12)


class TestBlocks:
    def test_blocks_cover_the_holdout_in_order(self):
        _, holdout, _ = _CACHE["lr"]
        source = as_block_source(holdout)
        blocks = [source.read_block(*bounds) for bounds in source.block_bounds(64)]
        assert sum(block.n_rows for block in blocks) == holdout.n_rows
        np.testing.assert_array_equal(
            np.vstack([block.X for block in blocks]), holdout.X
        )
        np.testing.assert_array_equal(
            np.concatenate([block.y for block in blocks]), holdout.y
        )

    def test_blocks_are_zero_copy_views(self):
        _, holdout, _ = _CACHE["lr"]
        source = as_block_source(holdout)
        block = source.read_block(*source.block_bounds(64)[0])
        assert np.shares_memory(block.X, holdout.X)
        assert np.shares_memory(block.y, holdout.y)

    def test_invalid_config_rejected(self):
        with pytest.raises(DataError):
            StreamingConfig(block_rows=0)
        with pytest.raises(DataError):
            StreamingConfig(n_workers=-1)


class TestAccumulatorProtocol:
    def test_block_sum_merge_equals_single_pass(self):
        spec, holdout, p = _CACHE["poisson"]
        theta_ref, Thetas, _ = _parameter_batches(p, seed=35)
        source = as_block_source(holdout)
        blocks = [source.read_block(*bounds) for bounds in source.block_bounds(100)]
        single = spec.diff_accumulator(theta_ref, Thetas, holdout)
        for block in blocks:
            single.update(block)
        left = spec.diff_accumulator(theta_ref, Thetas, holdout)
        right = spec.diff_accumulator(theta_ref, Thetas, holdout)
        for block in blocks[:3]:
            left.update(block)
        for block in blocks[3:]:
            right.update(block)
        left.merge(right)
        np.testing.assert_allclose(left.finalize(), single.finalize(), atol=1e-15)

    def test_block_sum_rejects_foreign_merge_and_empty_finalize(self):
        spec, holdout, p = _CACHE["poisson"]
        theta_ref, Thetas, _ = _parameter_batches(p, seed=36)
        accumulator = spec.diff_accumulator(theta_ref, Thetas, holdout)
        with pytest.raises(ModelSpecError):
            accumulator.merge(PrecomputedDiffAccumulator(np.zeros(K)))
        with pytest.raises(ModelSpecError):
            accumulator.finalize()

    def test_ppca_accumulator_skips_blocks(self):
        spec, holdout, p = _CACHE["ppca"]
        theta_ref, Thetas, _ = _parameter_batches(p, seed=37)
        accumulator = spec.diff_accumulator(theta_ref, Thetas, holdout)
        assert accumulator.needs_holdout_blocks is False
        np.testing.assert_allclose(
            accumulator.finalize(),
            _scalar_diffs(spec, theta_ref, Thetas, holdout),
            atol=1e-15,
        )

    def test_block_sum_requires_candidates(self):
        with pytest.raises(ModelSpecError):
            BlockSumDiffAccumulator(0, lambda block: 0, lambda sums, rows: sums)


@pytest.fixture(scope="module")
def fold_sources(tmp_path_factory):
    """Each family's holdout in memory and as a five-shard store."""
    root = tmp_path_factory.mktemp("fold-rule")
    sources = {}
    for family in FAMILIES:
        holdout = _CACHE[family][1]
        sources[family, "memory"] = holdout
        sources[family, "store"] = ShardStore.write(
            holdout, root / family, shard_rows=150
        ).dataset()
    return sources


def _fold_results(family, holdout, config):
    """Both diff entry points and every applicable statistics method."""
    spec, _, p = _CACHE[family]
    theta_ref, Thetas, Thetas_b = _parameter_batches(p, seed=40)
    results = [
        streaming_prediction_differences(spec, theta_ref, Thetas, holdout, config=config),
        *streaming_fanout_pairwise_prediction_differences(
            spec, [(Thetas, Thetas_b), (Thetas_b[::-1], Thetas)], holdout, config=config
        ),
    ]
    for method in StatisticsMethod:
        if method is StatisticsMethod.CLOSED_FORM and not spec.has_closed_form_hessian:
            continue
        statistics = compute_statistics(
            spec, theta_ref, holdout, method=method, streaming=config, persist=False
        )
        results += [
            statistics.covariance.transform,
            statistics.covariance.singular_values,
        ]
    return results


class TestExecutorBackends:
    """The thread-pool executor behind block fan-out."""

    def test_unknown_backend_rejected(self):
        for backend in ("gpu", "processes"):
            with pytest.raises(DataError):
                StreamingConfig(backend=backend)

    @pytest.mark.parametrize("n_workers", [1, 2, 3], ids=lambda n: f"threads-{n}")
    @pytest.mark.parametrize("source", ["memory", "store"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_fold_rule(self, family, source, n_workers, fold_sources):
        # Each unit (a block for diffs, a shard for store statistics, the
        # whole source otherwise) folds from zero and the partials left-fold
        # in source order, so no worker count changes a bit.
        # In-memory and store results are not compared with each other: the
        # regression label scale comes from np.std in memory and from the
        # Chan-combined manifest moments in a store.
        holdout = fold_sources[family, source]
        serial = _fold_results(
            family, holdout, StreamingConfig(block_rows=64, n_workers=0)
        )
        fanned = _fold_results(
            family, holdout, StreamingConfig(block_rows=64, n_workers=n_workers)
        )
        assert len(fanned) == len(serial)
        for actual, expected in zip(fanned, serial):
            assert np.array_equal(actual, expected)
