"""Integration tests for the observability tier against the real stack.

The two hard guarantees the tier ships with:

* **identity** — a coalesced warm-restart run produces bitwise-identical
  results (models, ε estimates, sample sizes, probe schedules *and*
  streamed-pass counts) with telemetry on and off;
* **fidelity** — the exported counters agree exactly with the accounting
  the stack already proves elsewhere: the pass counter with
  ``streaming_pass_count()`` across every executor backend, the bridged
  roll-ups with the pre-existing ``RegistryStats.cache_totals`` fold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caching import CacheStats
from repro.core.contract import ApproximationContract
from repro.core.session import EstimationSession
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import higgs_like
from repro.evaluation.streaming import (
    StreamingConfig,
    streaming_pass_count,
    streaming_prediction_differences,
)
from repro.exceptions import BlinkMLError
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.obs import (
    current_pass_scope,
    get_metrics,
    get_tracer,
    pass_scope,
    render_prometheus,
    set_obs_enabled,
)
from repro.serving import CoalescingService

SPEC = LogisticRegressionSpec(regularization=1e-3)

CONTRACTS = [
    ApproximationContract(epsilon=0.010, delta=0.05),
    ApproximationContract(epsilon=0.015, delta=0.05),
    ApproximationContract(epsilon=0.010, delta=0.05),
    ApproximationContract(epsilon=0.020, delta=0.05),
]


@pytest.fixture(scope="module")
def splits():
    return train_holdout_test_split(
        higgs_like(n_rows=2_000, n_features=8, seed=29),
        SplitSpec(holdout_fraction=0.2, test_fraction=0.1),
        rng=np.random.default_rng(29),
    )


@pytest.fixture(autouse=True)
def _follow_env():
    """Leave enablement as the ambient environment dictates after each test."""
    yield
    set_obs_enabled(None)


def run_coalesced_warm_restart(splits, warm_dir):
    """One cold fleet run plus a warm restart; returns results and passes.

    The e2e shape from the warm-cache tier: a first session streams the
    real passes and publishes warm artifacts, a second session (same
    seeds, fresh process state modulo the shared directory) answers the
    same contracts from the tier.
    """

    def build():
        return EstimationSession(
            SPEC,
            splits.train,
            splits.holdout,
            initial_sample_size=200,
            n_parameter_samples=16,
            rng=3,
            warm_cache=warm_dir,
        )

    before = streaming_pass_count()
    cold = build().train_to_many(CONTRACTS)
    warm = build().train_to_many(CONTRACTS)
    passes = streaming_pass_count() - before
    return cold, warm, passes


def summarise(outcome):
    return [
        (
            result.sample_size,
            result.estimated_epsilon,
            result.model.theta.tobytes(),
            result.metadata["size_search_probes"],
        )
        for result in outcome.results
    ]


class TestObsIdentity:
    def test_coalesced_warm_restart_identical_on_and_off(self, splits, tmp_path):
        set_obs_enabled(False)
        cold_off, warm_off, passes_off = run_coalesced_warm_restart(
            splits, tmp_path / "off"
        )
        set_obs_enabled(True)
        cold_on, warm_on, passes_on = run_coalesced_warm_restart(
            splits, tmp_path / "on"
        )
        # Bitwise-identical results and identical pass economics: telemetry
        # buys detail, never answers.
        assert summarise(cold_on) == summarise(cold_off)
        assert summarise(warm_on) == summarise(warm_off)
        assert passes_on == passes_off
        assert cold_on.fused_search_passes == cold_off.fused_search_passes
        assert warm_on.serial_search_passes == warm_off.serial_search_passes


class TestPassCounterParity:
    @pytest.mark.parametrize(
        "config",
        [
            StreamingConfig(block_rows=100),
            StreamingConfig(block_rows=100, n_workers=2, backend="threads"),
            StreamingConfig(block_rows=100, n_workers=2, backend="processes"),
        ],
        ids=["serial", "threads", "processes"],
    )
    def test_one_tick_per_pass_under_every_backend(self, splits, config):
        """Worker fan-out never double-ticks and never loses increments.

        The counter ticks in the parent, once per block-consuming call —
        workers (threads or forkserver processes) only evaluate block
        ranges — so the count is exact under every backend.
        """
        rng = np.random.default_rng(31)
        theta_ref = rng.normal(size=8)
        thetas = rng.normal(size=(4, 8))
        counter = get_metrics().counter(
            "repro_streaming_passes_total",
            "Streamed passes over a block source (one per "
            "stream_accumulate() call that consumes holdout blocks).",
            ("scope", "session"),
        )
        before_fn = streaming_pass_count()
        before_metric = counter.total()
        with pass_scope("parity-test", session="p"):
            for _ in range(3):
                streaming_prediction_differences(
                    SPEC, theta_ref, thetas, splits.holdout, config=config
                )
        assert streaming_pass_count() - before_fn == 3
        # The thin-reader function and the labelled counter agree exactly,
        # and the ticks landed under the scope that made them.
        assert counter.total() - before_metric == 3
        assert counter.value(scope="parity-test", session="p") >= 3

    def test_scope_label_restored(self):
        assert current_pass_scope() == ("unscoped", "")


class TestBridgedRollups:
    def test_cache_totals_parity_with_hand_fold(self, splits):
        """The merge-based roll-up equals the pre-PR hand-written fold."""
        service = CoalescingService(start_housekeeping=False)
        try:
            for key, seed in (("a", 1), ("b", 2)):
                service.batcher(
                    key,
                    SPEC,
                    splits.train,
                    splits.holdout,
                    initial_sample_size=200,
                    n_parameter_samples=16,
                    rng=seed,
                )
                service.answer_sync(key, CONTRACTS[0])
            stats = service.stats()
            totals = stats.cache_totals()

            def hand_fold(name: str) -> tuple[int, int, int, int, int]:
                rows = [
                    info.cache_stats[name] for info in stats.per_session
                ]
                return (
                    sum(r.hits for r in rows),
                    sum(r.misses for r in rows),
                    sum(r.evictions for r in rows),
                    sum(r.entries for r in rows),
                    sum(r.bytes for r in rows),
                )

            for name, merged in totals.items():
                assert (
                    merged.hits,
                    merged.misses,
                    merged.evictions,
                    merged.entries,
                    merged.bytes,
                ) == hand_fold(name)
        finally:
            service.close()

    def test_cache_stats_merge_rejects_mismatched_names(self):
        a = CacheStats("diff", 1, 2, 0, 3, 100, None, None)
        b = CacheStats("size", 1, 2, 0, 3, 100, None, None)
        with pytest.raises(BlinkMLError):
            a.merge(b)

    def test_merge_bounds_none_absorbs(self):
        bounded = CacheStats("diff", 0, 0, 0, 0, 0, 10, 1000)
        unbounded = CacheStats("diff", 0, 0, 0, 0, 0, None, 500)
        merged = bounded.merge(unbounded)
        assert merged.max_entries is None
        assert merged.max_bytes == 1500

    def test_scrape_covers_fleet_and_matches_batcher_accounting(self, splits):
        """One scrape reports coalescing counters equal to BatcherStats."""
        set_obs_enabled(True)
        service = CoalescingService(start_housekeeping=False)
        try:
            service.batcher(
                "k",
                SPEC,
                splits.train,
                splits.holdout,
                initial_sample_size=200,
                n_parameter_samples=16,
                rng=5,
            )
            for contract in CONTRACTS:
                service.train_to_sync("k", contract)
            service.flush()
            batching = service.batching_stats()
            snapshot = service.metrics_snapshot()
            assert (
                snapshot.value("repro_coalescing_fused_passes")
                == batching.fused_passes
            )
            assert (
                snapshot.value("repro_coalescing_serial_passes")
                == batching.serial_passes
            )
            assert (
                snapshot.value("repro_coalescing_requests") == batching.requests
            )
            assert snapshot.value("repro_registry_sessions") == 1
            rendered = render_prometheus(snapshot)
            for required in (
                "repro_streaming_passes_total",
                "repro_session_train_seconds",
                "repro_cache_hits",
                "repro_coalescing_passes_saved",
                "repro_registry_bytes",
            ):
                assert required in rendered
        finally:
            service.close()

    def test_span_tree_reconstructs_request_causality(self, splits):
        """answer → accuracy streaming passes hang off one service trace."""
        set_obs_enabled(True)
        tracer = get_tracer()
        session = EstimationSession(
            SPEC,
            splits.train,
            splits.holdout,
            initial_sample_size=200,
            n_parameter_samples=16,
            rng=7,
        )
        tracer.clear()
        session.train_to(CONTRACTS[0])
        spans = tracer.finished_spans()
        by_id = {span.span_id: span for span in spans}
        # A direct train_to is the one-contract fused dispatch.
        roots = [span for span in spans if span.name == "session.train_to_many"]
        assert len(roots) == 1
        root = roots[0]
        assert root.attributes["contracts"] == 1
        in_trace = [span for span in spans if span.trace_id == root.trace_id]
        names = {span.name for span in in_trace}
        assert "session.answer" in names
        assert "size_search.estimate_many" in names
        assert "streaming.pass" in names
        # Every streamed pass in the trace reaches the root through its
        # parent chain — the causality the span tree renders.
        for span in in_trace:
            node = span
            while node.parent_id is not None:
                node = by_id[node.parent_id]
            assert node is root
