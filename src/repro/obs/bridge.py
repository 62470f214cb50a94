"""Render a service's stats snapshots as gauge families for its scrape.

Four stats surfaces own the fleet's counters: per-cache
:class:`~repro.core.caching.CacheStats`, the coalescing tier's
``BatcherStats``, the warm tier's
:class:`~repro.data.store.warm_cache.WarmCacheStats` and the fleet's
:class:`~repro.core.registry.RegistryStats`.  Those snapshots are the
only copy; nothing mirrors them into the process registry.
:func:`fleet_instruments` renders one service's pair as gauge-kind
instrument snapshots at scrape time
(:meth:`~repro.serving.service.CoalescingService.metrics_snapshot`), so a
scrape's fleet families are exactly that service's own ``stats()``.

:class:`~repro.serving.batcher.BatcherStats` is imported for type
checking only: the serving package imports :mod:`repro.obs` for its own
instrumentation, so a runtime import here would close an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.registry import RegistryStats
from repro.obs.metrics import InstrumentSnapshot, SeriesValue

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
    ("fused_passes", "Size-search rounds actually executed by fused dispatches."),
    (
        "serial_passes",
        "Size-search rounds the same contracts would have cost serially.",
    ),
    (
        "passes_saved",
        "Size-search rounds coalescing avoided (serial minus fused; exact).",
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

#: one gauge family being rendered: help, label names, and its series
#: keyed by label values (a later series with equal labels replaces the
#: earlier one).
_Family = tuple[str, tuple[str, ...], dict[tuple[str, ...], float]]


def fleet_instruments(
    registry: RegistryStats, batching: BatcherStats
) -> tuple[InstrumentSnapshot, ...]:
    """One service's fleet as gauge families, sorted by name.

    Covers occupancy and byte budget, the lifetime hit/miss/eviction/
    invalidation/refresh counters, the fleet-wide per-cache roll-up
    (:meth:`~repro.core.registry.RegistryStats.cache_totals`, under the
    empty session label), each live session's caches and bytes, the warm
    tier and the coalescing counters.  A family appears only when it has
    at least one series, so an empty fleet renders no cache families.
    Each session's byte share is
    ``repro_registry_max_total_bytes / repro_registry_sessions``.
    """
    families: dict[str, _Family] = {}

    def put(
        prefix: str,
        fields: tuple[tuple[str, str], ...],
        stats: object,
        **labels: str,
    ) -> None:
        for field, help_text in fields:
            _, _, series = families.setdefault(
                f"{prefix}_{field}", (help_text, tuple(labels), {})
            )
            series[tuple(labels.values())] = float(getattr(stats, field))

    put("repro_registry", _REGISTRY_GAUGES, registry)
    if registry.max_total_bytes is not None:
        put("repro_registry", _POOL_GAUGE, registry)
    for totals in registry.cache_totals().values():
        put("repro_cache", _CACHE_GAUGES, totals, cache=totals.name, session="")
    for info in registry.per_session:
        session = str(info.key)
        for cache in info.cache_stats.values():
            put("repro_cache", _CACHE_GAUGES, cache, cache=cache.name, session=session)
        put("repro_session", _SESSION_GAUGE, info, session=session)
    if registry.warm is not None:
        put("repro_warm", _WARM_GAUGES, registry.warm)
    put("repro_coalescing", _BATCHER_GAUGES, batching)
    return tuple(
        InstrumentSnapshot(
            name=name,
            kind="gauge",
            help=help_text,
            label_names=label_names,
            buckets=(),
            series=tuple(
                SeriesValue(labels=labels, value=series[labels])
                for labels in sorted(series)
            ),
        )
        for name, (help_text, label_names, series) in sorted(families.items())
    )
