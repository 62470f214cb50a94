"""Integration tests for the observability tier against the real stack.

Telemetry is always live, so every test here runs at default settings.
The two guarantees the tier ships with:

* **fidelity** — the exported counters agree exactly with the accounting
  the stack already proves elsewhere: the pass counter with
  ``streaming_pass_count()`` serially and fanned out over threads, the
  size-search counters with ``CoalescedTrainOutcome``, the eviction-event
  counter with ``RegistryStats``, the cache roll-ups with the
  pre-existing ``RegistryStats.cache_totals`` fold, and the fleet gauges
  byte for byte with a pinned rendering of hand-built stats snapshots;
* **liveness** — a service's scrape renders its own ``stats()`` and
  nothing else: another service's fleet, evicted or invalidated sessions
  and closed services never appear, not even as empty families.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.caching import CacheStats
from repro.core.contract import ApproximationContract
from repro.core.registry import RegistryStats, SessionInfo, SessionRegistry
from repro.core.session import EstimationSession
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.store.warm_cache import WarmCacheStats
from repro.data.synthetic import gas_like, higgs_like
from repro.evaluation.streaming import (
    StreamingConfig,
    streaming_pass_count,
    streaming_prediction_differences,
)
from repro.exceptions import BlinkMLError
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.obs import (
    MetricsSnapshot,
    current_pass_scope,
    get_metrics,
    get_tracer,
    pass_scope,
    render_prometheus,
)
from repro.obs.bridge import fleet_instruments
from repro.serving import BatcherStats, CoalescingService

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


class TestPassCounterParity:
    @pytest.mark.parametrize(
        "config",
        [
            StreamingConfig(block_rows=100),
            StreamingConfig(block_rows=100, n_workers=2),
        ],
        ids=["serial", "threads"],
    )
    def test_one_tick_per_pass_under_every_backend(self, splits, config):
        """Worker fan-out never double-ticks and never loses increments.

        The counter ticks on the calling thread, once per block-consuming
        call — worker threads only evaluate block ranges — so the count is
        exact serially and fanned out.
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


def admit(service, key, splits, seed):
    """Admit ``key`` to the service's fleet and fill its caches once."""
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


def scrape_delta(before, after, name):
    return after.total(name) - before.total(name)


class TestExportFidelity:
    def test_pass_and_search_counters_match_stack_accounting(self):
        """One coalesced dispatch of a mixed contract set, counted twice.

        Tight searches, a duplicate and loose contracts in one
        ``train_to_many``: the scrape's deltas must equal the pass counter's
        delta and the outcome's own fused / passes-saved accounting.
        """
        splits = train_holdout_test_split(
            gas_like(n_rows=6_000, n_features=24, seed=401),
            SplitSpec(holdout_fraction=0.45, test_fraction=0.05),
            rng=np.random.default_rng(402),
        )
        spec = LinearRegressionSpec.with_estimated_noise(
            splits.train, regularization=1e-3
        )
        session = EstimationSession(
            spec,
            splits.train,
            splits.holdout,
            initial_sample_size=1_000,
            n_parameter_samples=128,
            rng=0,
        )
        epsilon0 = session.answer(
            ApproximationContract(epsilon=0.5, delta=0.05)
        ).estimate.epsilon
        tight = 0.25 * epsilon0
        contracts = [
            ApproximationContract(epsilon=tight, delta=0.05),
            ApproximationContract(epsilon=tight, delta=0.04),
            ApproximationContract(epsilon=tight, delta=0.05),  # duplicate
            ApproximationContract(epsilon=tight, delta=0.06),
            ApproximationContract(epsilon=0.9 * epsilon0, delta=0.05),
            ApproximationContract(epsilon=0.8 * epsilon0, delta=0.10),
        ]
        before = get_metrics().snapshot()
        passes_before = streaming_pass_count()
        outcome = session.train_to_many(contracts)
        passes = streaming_pass_count() - passes_before
        after = get_metrics().snapshot()

        assert outcome.passes_saved > 0
        assert [
            scrape_delta(before, after, "repro_streaming_passes_total"),
            scrape_delta(before, after, "repro_size_search_rounds_total"),
            scrape_delta(before, after, "repro_size_search_passes_saved_total"),
        ] == [passes, outcome.fused_search_passes, outcome.passes_saved]

    def test_eviction_events_match_registry_stats(self, splits):
        service = CoalescingService(
            SessionRegistry(max_sessions=1), start_housekeeping=False
        )
        try:
            before = service.metrics_snapshot()
            for seed, key in enumerate(("evict-a", "evict-b", "evict-c")):
                admit(service, key, splits, seed)
            after = service.metrics_snapshot()
            evictions = service.stats().evictions
            assert evictions == 2
            assert (
                scrape_delta(before, after, "repro_registry_eviction_events_total")
                == evictions
            )
            assert after.value("repro_registry_evictions") == evictions
        finally:
            service.close()


def session_labels(snapshot, keys):
    """The ``session`` labels among ``keys`` that any gauge reports."""
    labels = set()
    for instrument in snapshot.instruments:
        if instrument.kind != "gauge" or "session" not in instrument.label_names:
            continue
        position = instrument.label_names.index("session")
        labels.update(entry.labels[position] for entry in instrument.series)
    return labels & set(keys)


class TestScrapeLiveness:
    def test_scrape_drops_evicted_sessions_and_closed_services(self, splits):
        """Per-session series follow ``stats().per_session``, then vanish."""
        keys = ("stale-a", "stale-b")
        service = CoalescingService(
            SessionRegistry(max_sessions=1), start_housekeeping=False
        )
        try:
            for seed, key in enumerate(keys):
                admit(service, key, splits, seed)
                live = {str(info.key) for info in service.stats().per_session}
                assert session_labels(service.metrics_snapshot(), keys) == live
            # Admitting "stale-b" evicted "stale-a".
            assert live == {"stale-b"}
        finally:
            service.close()
        assert session_labels(get_metrics().snapshot(), keys) == set()

    def test_each_service_scrapes_only_its_own_fleet(self, splits):
        """Two live services in one process never report each other."""
        with (
            CoalescingService(start_housekeeping=False) as first,
            CoalescingService(start_housekeeping=False) as second,
        ):
            admit(first, "a", splits, 1)
            admit(second, "b", splits, 2)
            for contract in CONTRACTS[1:3]:
                second.answer_sync("b", contract)
            assert [
                first.batching_stats().requests,
                second.batching_stats().requests,
            ] == [1, 3]
            for service, key in ((first, "a"), (second, "b")):
                snapshot = service.metrics_snapshot()
                assert (
                    snapshot.value("repro_coalescing_requests")
                    == service.batching_stats().requests
                )
                assert session_labels(snapshot, ("a", "b")) == {key}
                assert snapshot.value("repro_registry_sessions") == 1

    def test_no_empty_families_after_invalidation_or_close(self, splits):
        """A family with no series is never exported."""
        service = CoalescingService(start_housekeeping=False)
        try:
            admit(service, "empty-k", splits, 3)
            assert fleet_families(service.metrics_snapshot()) >= {
                "repro_cache_hits",
                "repro_session_bytes",
            }
            service.registry.invalidate("empty-k")
            scraped = service.metrics_snapshot()
            assert scraped.value("repro_registry_sessions") == 0
            assert not {
                name
                for name in fleet_families(scraped)
                if name.startswith("repro_cache_") or name == "repro_session_bytes"
            }
        finally:
            service.close()
        assert fleet_families(service.metrics_snapshot()) == set()
        assert fleet_families(get_metrics().snapshot()) == set()


def fleet_families(snapshot):
    """Names of the gauge-kind instruments in a snapshot."""
    return {
        instrument.name
        for instrument in snapshot.instruments
        if instrument.kind == "gauge"
    }


# ----------------------------------------------------------------------
# Golden rendering: hand-built stats snapshots, pinned bytes
# ----------------------------------------------------------------------
GOLDEN = Path(__file__).parent / "golden"


def cache_rows(base):
    return {
        name: CacheStats(
            name,
            base + 1 + i,
            base + 2 + i,
            base + 3 + i,
            base + 4 + i,
            100 * base + 10 * i + 5,
            64,
            None,
        )
        for i, name in enumerate(("diff", "model", "size"))
    }


FULL_FLEET = RegistryStats(
    sessions=2,
    max_sessions=16,
    bytes=4000,
    max_total_bytes=8192,
    session_budget_bytes=4096,
    hits=11,
    misses=2,
    evictions=3,
    invalidations=4,
    fingerprint_invalidations=5,
    per_session=(
        SessionInfo("a", "fp-a", 1500, 0.5, cache_rows(10)),
        SessionInfo(7, "fp-7", 2500, 1.25, cache_rows(20)),
    ),
    refreshes=6,
    warm=WarmCacheStats("warm-dir", 7, 8, 9, 10, 11, 12, 13, 14_000, 1 << 20),
)
EMPTY_FLEET = RegistryStats(
    sessions=0,
    max_sessions=None,
    bytes=0,
    max_total_bytes=None,
    session_budget_bytes=None,
    hits=0,
    misses=0,
    evictions=0,
    invalidations=0,
    fingerprint_invalidations=0,
    per_session=(),
)
BATCHING = BatcherStats(
    batches=3,
    requests=17,
    coalesced_requests=4,
    answer_requests=12,
    train_requests=5,
    fused_passes=6,
    serial_passes=15,
    load_shed=2,
    max_queue_depth=9,
    window_slots=48,
    queue_wait_seconds=0.375,
    max_queue_wait_seconds=0.0625,
)


@pytest.mark.parametrize(
    "fleet,golden",
    [(FULL_FLEET, "fleet_full.prom"), (EMPTY_FLEET, "fleet_empty.prom")],
    ids=["full", "empty"],
)
def test_fleet_instruments_render_the_pinned_bytes(fleet, golden):
    """Names, help, labels, values and order match the pinned scrape text.

    The golden files pin what dashboards read for these hand-built
    snapshots; any change to a family's name, help, label or value
    formatting shows up here byte for byte.
    """
    rendered = render_prometheus(
        MetricsSnapshot(instruments=fleet_instruments(fleet, BATCHING))
    )
    assert rendered == (GOLDEN / golden).read_text(encoding="utf-8")
