"""Bridge the pre-existing stats snapshots into the metrics registry.

PRs 1–9 grew five ad-hoc observability surfaces — per-cache
:class:`~repro.core.caching.CacheStats`, the coalescing tier's
``BatcherStats``, the warm tier's
:class:`~repro.data.store.warm_cache.WarmCacheStats`, the fleet's
:class:`~repro.core.registry.RegistryStats` and the global streamed-pass
counter.  The pass counter now *is* a registry counter
(:mod:`repro.evaluation.streaming`); this module folds the other four in
at scrape time, so one Prometheus/JSON export covers the whole stack.

Everything is published as gauges mirroring the snapshots' cumulative
counters: the snapshots own the truth (and their own locking), the
bridge just copies the latest values on each scrape —
:class:`~repro.serving.service.CoalescingService` registers a metrics
collector that bridges its registry's and its batchers' snapshots, so
the cost is per scrape, never per request.

:class:`~repro.serving.batcher.BatcherStats` is imported for type
checking only: the serving package imports :mod:`repro.obs` for its own
instrumentation, so a runtime import here would close an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.caching import CacheStats
from repro.core.registry import RegistryStats
from repro.data.store.warm_cache import WarmCacheStats
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.serving.batcher import BatcherStats


def bridge_cache_stats(
    metrics: MetricsRegistry, stats: CacheStats, session: str = ""
) -> None:
    """Publish one cache's counters as ``repro_cache_*`` gauges."""
    labels = {"cache": stats.name, "session": session}
    metrics.gauge(
        "repro_cache_hits", "Cache hits (from CacheStats).",
        ("cache", "session"),
    ).set(stats.hits, **labels)
    metrics.gauge(
        "repro_cache_misses", "Cache misses (from CacheStats).",
        ("cache", "session"),
    ).set(stats.misses, **labels)
    metrics.gauge(
        "repro_cache_evictions", "Cache evictions (from CacheStats).",
        ("cache", "session"),
    ).set(stats.evictions, **labels)
    metrics.gauge(
        "repro_cache_entries", "Live cache entries (from CacheStats).",
        ("cache", "session"),
    ).set(stats.entries, **labels)
    metrics.gauge(
        "repro_cache_bytes", "Approximate cached bytes (from CacheStats).",
        ("cache", "session"),
    ).set(stats.bytes, **labels)


def bridge_warm_stats(metrics: MetricsRegistry, stats: WarmCacheStats) -> None:
    """Publish the warm tier's counters as ``repro_warm_*`` gauges."""
    for name, value, help_text in (
        ("repro_warm_hits", stats.hits, "Warm-tier hits."),
        ("repro_warm_misses", stats.misses, "Warm-tier misses."),
        ("repro_warm_writes", stats.writes, "Warm-tier entries published."),
        (
            "repro_warm_dropped_writes",
            stats.dropped_writes,
            "Warm-tier write-behind submissions shed by the bounded queue.",
        ),
        (
            "repro_warm_quarantined",
            stats.quarantined,
            "Warm-tier entries quarantined on digest/parse failure.",
        ),
        (
            "repro_warm_gc_removed",
            stats.gc_removed,
            "Warm-tier files deleted by the byte-bounded mtime-GC.",
        ),
        ("repro_warm_entries", stats.entries, "Warm-tier on-disk entries."),
        ("repro_warm_bytes", stats.bytes, "Warm-tier on-disk bytes."),
    ):
        metrics.gauge(name, help_text).set(value)


def bridge_batcher_stats(metrics: MetricsRegistry, stats: BatcherStats) -> None:
    """Publish the aggregated coalescing counters as ``repro_coalescing_*``."""
    for name, value, help_text in (
        (
            "repro_coalescing_batches",
            stats.batches,
            "Fused dispatches executed by the coalescing tier.",
        ),
        (
            "repro_coalescing_requests",
            stats.requests,
            "Requests completed through coalesced dispatches.",
        ),
        (
            "repro_coalescing_coalesced_requests",
            stats.coalesced_requests,
            "In-window duplicate requests served as single-flight followers.",
        ),
        (
            "repro_coalescing_answer_requests",
            stats.answer_requests,
            "answer() requests served by the coalescing tier.",
        ),
        (
            "repro_coalescing_train_requests",
            stats.train_requests,
            "train_to() requests served by the coalescing tier.",
        ),
        (
            "repro_coalescing_fused_passes",
            stats.fused_passes,
            "Size-search passes actually executed by fused dispatches.",
        ),
        (
            "repro_coalescing_serial_passes",
            stats.serial_passes,
            "Size-search passes the same contracts would have cost serially.",
        ),
        (
            "repro_coalescing_passes_saved",
            stats.passes_saved,
            "Streamed passes coalescing avoided (serial minus fused; exact).",
        ),
        (
            "repro_coalescing_load_shed",
            stats.load_shed,
            "Submissions shed because the key's queue was at max_queue.",
        ),
        (
            "repro_coalescing_max_queue_depth",
            stats.max_queue_depth,
            "High-water mark of queued requests across batchers.",
        ),
        (
            "repro_coalescing_queue_wait_seconds",
            stats.queue_wait_seconds,
            "Total seconds requests spent queued before dispatch.",
        ),
        (
            "repro_coalescing_max_queue_wait_seconds",
            stats.max_queue_wait_seconds,
            "Worst single-request queue wait in seconds.",
        ),
    ):
        metrics.gauge(name, help_text).set(value)


def bridge_registry_stats(metrics: MetricsRegistry, stats: RegistryStats) -> None:
    """Publish a fleet snapshot: registry, per-cache and warm.

    One call covers everything :meth:`SessionRegistry.stats` reports —
    occupancy and byte budget, lifetime hit/miss/eviction/invalidation/
    rebalance counters, the fleet-wide per-cache roll-up
    (:meth:`~repro.core.registry.RegistryStats.cache_totals`), each live
    session's cache bytes and the warm tier.  Each session's byte share is
    ``repro_registry_max_total_bytes / repro_registry_sessions``.
    """
    for name, value, help_text in (
        ("repro_registry_sessions", stats.sessions, "Live fleet sessions."),
        (
            "repro_registry_bytes",
            stats.bytes,
            "Cache bytes held by the fleet (bounded by the byte pool).",
        ),
        ("repro_registry_hits", stats.hits, "get_or_create calls served live."),
        (
            "repro_registry_misses",
            stats.misses,
            "get_or_create calls that constructed a session.",
        ),
        (
            "repro_registry_evictions",
            stats.evictions,
            "Whole sessions evicted for capacity/budget/idleness.",
        ),
        (
            "repro_registry_invalidations",
            stats.invalidations,
            "Sessions dropped by explicit invalidate()/clear().",
        ),
        (
            "repro_registry_fingerprint_invalidations",
            stats.fingerprint_invalidations,
            "Sessions discarded because the offered data's digest changed.",
        ),
        (
            "repro_registry_refreshes",
            stats.refreshes,
            "Sessions that adopted appended data in place via refresh().",
        ),
    ):
        metrics.gauge(name, help_text).set(value)
    if stats.max_total_bytes is not None:
        metrics.gauge(
            "repro_registry_max_total_bytes",
            "Global cache-byte pool shared by the fleet.",
        ).set(stats.max_total_bytes)
    # The fleet-wide roll-up publishes under the empty session label; the
    # CacheStats name field becomes the "cache" label.
    for _cache_name, totals in sorted(stats.cache_totals().items()):
        bridge_cache_stats(metrics, totals, session="")
    for info in stats.per_session:
        session = str(info.key)
        for cache in info.cache_stats.values():
            bridge_cache_stats(metrics, cache, session=session)
        metrics.gauge(
            "repro_session_bytes",
            "Cache bytes held by one fleet session.",
            ("session",),
        ).set(info.bytes, session=session)
    if stats.warm is not None:
        bridge_warm_stats(metrics, stats.warm)
