"""Out-of-core dataset store: memory-mapped ``.npy`` shards + JSON manifest.

The storage tier beneath the streaming sharded holdout engine (see
``docs/architecture.md``, "Storage tier"):

* :class:`ShardStore` — owns a store directory (write / open / verify /
  append);
* :class:`ShardStoreWriter` / :func:`write_blocks` — out-of-core write path
  (``append=True`` reopens and grows an existing store);
* :class:`ShardedDataset` — the zero-copy block source the evaluation,
  session and registry layers consume in place of an in-memory ``Dataset``
  (``reload()`` adopts published growth in place);
* :class:`ShardManifest` / :class:`ShardInfo` / :class:`LabelMoments` — the
  manifest schema (dtype, shape, per-shard row ranges and digests, and a
  manifest-level content digest compatible with
  :meth:`repro.data.dataset.Dataset.content_digest`);
* :class:`StatisticsIndex` / :class:`StatisticsSidecarInfo` — per-shard H/J
  moment-summary sidecars keyed by (model-spec digest, θ-digest, method),
  written lazily by the streaming statistics tier and reused on every later
  session bootstrap;
* :class:`WarmCacheTier` / :class:`WarmCacheStats` — the cross-process warm
  cache: digest-keyed persistent entry files (sorted-difference vectors,
  size-search outcomes, trained models) shared across restarts and
  co-located serving processes, verified on every read and quarantined
  when corrupt.
"""

from repro.data.store.manifest import (
    MANIFEST_FILENAME,
    MANIFEST_VERSION,
    LabelMoments,
    ShardInfo,
    ShardManifest,
    StatisticsSidecarInfo,
)
from repro.data.store.shard_store import (
    ShardStore,
    ShardStoreWriter,
    ShardedDataset,
    write_blocks,
)
from repro.data.store.statistics_index import StatisticsIndex, sidecar_filename
from repro.data.store.warm_cache import (
    WarmCacheStats,
    WarmCacheTier,
    resolve_warm_cache,
    shared_warm_cache,
)

__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_VERSION",
    "LabelMoments",
    "ShardInfo",
    "ShardManifest",
    "StatisticsSidecarInfo",
    "ShardStore",
    "ShardStoreWriter",
    "ShardedDataset",
    "StatisticsIndex",
    "WarmCacheStats",
    "WarmCacheTier",
    "resolve_warm_cache",
    "shared_warm_cache",
    "sidecar_filename",
    "write_blocks",
]
