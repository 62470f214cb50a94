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
each :class:`~repro.serving.service.CoalescingService` owns a
:class:`FleetBridge` and registers a metrics collector that publishes
its registry's and its batchers' snapshots through it, so the cost is
per scrape, never per request.  The bridge also takes back what went
stale: a series it published earlier that the current snapshot no
longer carries (an evicted or invalidated session) is removed, and
:meth:`FleetBridge.retract` removes every series when the service
closes.  A scrape's per-session series are therefore exactly the live
services' ``per_session`` rows.

:class:`~repro.serving.batcher.BatcherStats` is imported for type
checking only: the serving package imports :mod:`repro.obs` for its own
instrumentation, so a runtime import here would close an import cycle.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.core.registry import RegistryStats
from repro.obs.metrics import Gauge, MetricsRegistry

if TYPE_CHECKING:
    from repro.serving.batcher import BatcherStats

#: (stats field, help) per gauge family; each gauge is named
#: ``<prefix>_<field>`` and mirrors that field of the snapshot.
_CACHE_GAUGES = (
    ("hits", "Cache hits (from CacheStats)."),
    ("misses", "Cache misses (from CacheStats)."),
    ("evictions", "Cache evictions (from CacheStats)."),
    ("entries", "Live cache entries (from CacheStats)."),
    ("bytes", "Approximate cached bytes (from CacheStats)."),
)
_WARM_GAUGES = (
    ("hits", "Warm-tier hits."),
    ("misses", "Warm-tier misses."),
    ("writes", "Warm-tier entries published."),
    (
        "dropped_writes",
        "Warm-tier write-behind submissions shed by the bounded queue.",
    ),
    ("quarantined", "Warm-tier entries quarantined on digest/parse failure."),
    ("gc_removed", "Warm-tier files deleted by the byte-bounded mtime-GC."),
    ("entries", "Warm-tier on-disk entries."),
    ("bytes", "Warm-tier on-disk bytes."),
)
_BATCHER_GAUGES = (
    ("batches", "Fused dispatches executed by the coalescing tier."),
    ("requests", "Requests completed through coalesced dispatches."),
    (
        "coalesced_requests",
        "In-window duplicate requests served as single-flight followers.",
    ),
    ("answer_requests", "answer() requests served by the coalescing tier."),
    ("train_requests", "train_to() requests served by the coalescing tier."),
    ("fused_passes", "Size-search passes actually executed by fused dispatches."),
    (
        "serial_passes",
        "Size-search passes the same contracts would have cost serially.",
    ),
    (
        "passes_saved",
        "Streamed passes coalescing avoided (serial minus fused; exact).",
    ),
    ("load_shed", "Submissions shed because the key's queue was at max_queue."),
    ("max_queue_depth", "High-water mark of queued requests across batchers."),
    ("queue_wait_seconds", "Total seconds requests spent queued before dispatch."),
    ("max_queue_wait_seconds", "Worst single-request queue wait in seconds."),
)
_REGISTRY_GAUGES = (
    ("sessions", "Live fleet sessions."),
    ("bytes", "Cache bytes held by the fleet (bounded by the byte pool)."),
    ("hits", "get_or_create calls served live."),
    ("misses", "get_or_create calls that constructed a session."),
    ("evictions", "Whole sessions evicted for capacity/budget/idleness."),
    ("invalidations", "Sessions dropped by explicit invalidate()/clear()."),
    (
        "fingerprint_invalidations",
        "Sessions discarded because the offered data's digest changed.",
    ),
    ("refreshes", "Sessions that adopted appended data in place via refresh()."),
)
_POOL_GAUGE = (("max_total_bytes", "Global cache-byte pool shared by the fleet."),)
_SESSION_GAUGE = (("bytes", "Cache bytes held by one fleet session."),)

#: one published series: its gauge and its (label, value) pairs.
_Series = tuple[Gauge, tuple[tuple[str, str], ...]]


class FleetBridge:
    """Publishes one service's stats snapshots as gauges, and retracts them.

    :meth:`publish` sets every gauge one :meth:`SessionRegistry.stats`
    plus merged ``BatcherStats`` snapshot covers — occupancy and byte
    budget, lifetime hit/miss/eviction/invalidation/refresh counters, the
    fleet-wide per-cache roll-up
    (:meth:`~repro.core.registry.RegistryStats.cache_totals`, under the
    empty session label), each live session's caches and bytes, the warm
    tier and the coalescing counters — then removes the series its
    previous call published that this one did not.  Each session's byte
    share is ``repro_registry_max_total_bytes / repro_registry_sessions``.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._metrics = metrics
        self._lock = threading.Lock()
        # Series the last publish() set; None once retracted for good.
        self._published: set[_Series] | None = set()  # guarded-by: _lock

    def publish(self, registry: RegistryStats, batching: BatcherStats) -> None:
        """Mirror the two snapshots into gauges; drop series gone stale."""
        current: set[_Series] = set()

        def put(
            prefix: str,
            fields: tuple[tuple[str, str], ...],
            stats: object,
            **labels: str,
        ) -> None:
            for field, help_text in fields:
                gauge = self._metrics.gauge(
                    f"{prefix}_{field}", help_text, tuple(labels)
                )
                gauge.set(getattr(stats, field), **labels)
                current.add((gauge, tuple(labels.items())))

        with self._lock:
            if self._published is None:
                return
            put("repro_registry", _REGISTRY_GAUGES, registry)
            if registry.max_total_bytes is not None:
                put("repro_registry", _POOL_GAUGE, registry)
            for totals in registry.cache_totals().values():
                put("repro_cache", _CACHE_GAUGES, totals, cache=totals.name, session="")
            for info in registry.per_session:
                session = str(info.key)
                for cache in info.cache_stats.values():
                    put(
                        "repro_cache", _CACHE_GAUGES, cache,
                        cache=cache.name, session=session,
                    )
                put("repro_session", _SESSION_GAUGE, info, session=session)
            if registry.warm is not None:
                put("repro_warm", _WARM_GAUGES, registry.warm)
            put("repro_coalescing", _BATCHER_GAUGES, batching)
            self._remove(self._published - current)
            self._published = current

    def retract(self) -> None:
        """Remove every series this bridge published; later publishes no-op."""
        with self._lock:
            if self._published is not None:
                self._remove(self._published)
            self._published = None

    @staticmethod
    def _remove(series: set[_Series]) -> None:
        for gauge, labels in series:
            gauge.remove(**dict(labels))
