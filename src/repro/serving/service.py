"""Asyncio serving front-end: coalescing batchers over a session registry.

:class:`CoalescingService` is the deployment-facing tier.  It composes the
pieces below it into one request path:

* a :class:`~repro.core.registry.SessionRegistry` owns the (model,
  dataset) fleet under its global byte budget;
* one :class:`~repro.serving.batcher.ContractBatcher` per registry key
  coalesces that key's concurrent contracts into fused dispatches;
* asyncio entry points (:meth:`CoalescingService.answer`,
  :meth:`CoalescingService.train_to`) submit to the key's batcher and
  await the request's future on the event loop
  (:func:`asyncio.wrap_future`), so an event-loop server can await
  thousands of in-flight contracts without a thread per wait while the
  batchers fuse them underneath.  Only a call that passes
  ``spec``/``train``/``holdout`` leaves the loop, through
  :func:`asyncio.to_thread`, because resolving it may construct a session.

**Load shedding.**  The one shedding rule is the batcher's bounded queue:
a submission finding ``max_queue`` requests already waiting for its key
raises :class:`~repro.exceptions.ServingOverloadError`, which callers
should treat as retryable, instead of growing the queue without bound.

**Housekeeping.**  A daemon thread runs off the request path every
``housekeeping_seconds``: idle-session eviction after
``idle_evict_seconds``, and closing batchers whose session the registry
no longer owns (evicted or invalidated) so a later request constructs a
fresh pair.

**Observability.**  :meth:`stats` is the registry's fleet snapshot
(occupancy, byte usage, counters) and :meth:`batching_stats` merges every
batcher's :class:`~repro.serving.batcher.BatcherStats`.  Those two
snapshots are the only copy of the fleet's counters: the service's scrape
(:meth:`metrics_snapshot`) is the process registry's snapshot including
gauge families rendered from them at that moment
(:func:`~repro.obs.bridge.fleet_instruments`).
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Literal

from repro.config import (
    DEFAULT_COALESCE_MAX_BATCH,
    DEFAULT_COALESCE_MAX_QUEUE,
    DEFAULT_COALESCE_WINDOW_MS,
    DEFAULT_SERVICE_HOUSEKEEPING_SECONDS,
    DEFAULT_SERVICE_IDLE_EVICT_SECONDS,
)
from repro.core.contract import ApproximationContract
from repro.core.registry import RegistryStats, SessionRegistry
from repro.core.result import ApproximateTrainingResult
from repro.core.session import SessionAnswer
from repro.data.dataset import Dataset
from repro.data.store import ShardedDataset
from repro.data.store.warm_cache import WarmCacheTier
from repro.exceptions import ServingError
from repro.models.base import ModelClassSpec
from repro.obs import (
    MetricsSnapshot,
    get_metrics,
    get_tracer,
    render_json,
    render_prometheus,
)
from repro.obs.bridge import fleet_instruments
from repro.serving.batcher import BatcherStats, ContractBatcher


class CoalescingService:
    """Coalescing serving front-end over a byte-budgeted session fleet.

    Parameters
    ----------
    registry:
        The :class:`~repro.core.registry.SessionRegistry` to serve from
        (``None`` constructs one with the defaults).
    warm_cache:
        Forwarded to the default-constructed registry
        (:class:`~repro.core.registry.SessionRegistry`'s ``warm_cache``):
        the cross-process warm tier every member session shares, so a
        restarted service answers repeat contracts with zero streamed
        passes.  A tier, a directory path, ``None`` to consult
        ``REPRO_WARM_CACHE_DIR`` (disabled when unset), or ``False`` to
        force cold construction.  When ``registry`` is passed explicitly
        this must stay ``None`` — configure the tier on the registry you
        construct.
    window_ms / max_batch / max_queue:
        Per-key :class:`~repro.serving.batcher.ContractBatcher` parameters
        (see that class).  ``max_queue`` is the service's only
        load-shedding bound.
    housekeeping_seconds:
        Period of the background housekeeping thread (idle eviction +
        stale-batcher cleanup).  ``start_housekeeping=False``
        disables the thread; :meth:`housekeep_once` can then be driven
        manually (tests, external schedulers).
    idle_evict_seconds:
        Sessions idle longer than this are evicted by housekeeping
        (0 disables idle eviction).
    """

    def __init__(
        self,
        registry: SessionRegistry | None = None,
        *,
        window_ms: float = DEFAULT_COALESCE_WINDOW_MS,
        max_batch: int = DEFAULT_COALESCE_MAX_BATCH,
        max_queue: int = DEFAULT_COALESCE_MAX_QUEUE,
        housekeeping_seconds: float = DEFAULT_SERVICE_HOUSEKEEPING_SECONDS,
        idle_evict_seconds: float = DEFAULT_SERVICE_IDLE_EVICT_SECONDS,
        start_housekeeping: bool = True,
        warm_cache: WarmCacheTier | str | os.PathLike[str] | Literal[False] | None = None,
    ):
        if registry is not None and warm_cache is not None:
            raise ServingError(
                "serving: pass warm_cache through the registry you construct, "
                "not alongside an explicit registry"
            )
        self.registry = (
            registry
            if registry is not None
            else SessionRegistry(warm_cache=warm_cache)
        )
        self._window_ms = float(window_ms)
        self._max_batch = int(max_batch)
        self._max_queue = int(max_queue)
        self._housekeeping_seconds = float(housekeeping_seconds)
        self._idle_evict_seconds = float(idle_evict_seconds)
        self._lock = threading.Lock()
        self._batchers: dict[object, ContractBatcher] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        # Retired stats so closed batchers' history survives in aggregates.
        self._retired_stats = BatcherStats()  # guarded-by: _lock
        self._stop = threading.Event()
        self._housekeeper: threading.Thread | None = None
        if start_housekeeping:
            self._housekeeper = threading.Thread(
                target=self._housekeeping_loop,
                name="repro-serving-housekeeping",
                daemon=True,
            )
            self._housekeeper.start()

    # ------------------------------------------------------------------
    # Batcher resolution
    # ------------------------------------------------------------------
    def batcher(
        self,
        key: object,
        spec: ModelClassSpec | None = None,
        train: Dataset | ShardedDataset | None = None,
        holdout: Dataset | ShardedDataset | None = None,
        **session_kwargs: Any,
    ) -> ContractBatcher:
        """The live batcher for ``key``, creating session + batcher if needed.

        With ``spec``/``train``/``holdout`` the session is resolved through
        :meth:`SessionRegistry.get_or_create` (constructing it on first
        use, fingerprint-checking the data on every call); without them the
        key must already be live in the registry.  A batcher whose session
        the registry has since replaced (fingerprint invalidation, evict +
        re-create) is closed and rebuilt around the current session, so
        stale sessions are never served through a cached batcher.
        """
        if self._closed:
            raise ServingError("serving: service is closed")
        if spec is not None:
            session = self.registry.get_or_create(
                key, spec, train, holdout, **session_kwargs
            )
        else:
            session = self.registry.get(key)
            if session is None:
                raise ServingError(
                    f"serving: no live session for key {key!r}; pass "
                    "spec/train/holdout to construct one"
                )
        with self._lock:
            if self._closed:
                raise ServingError("serving: service is closed")
            batcher = self._batchers.get(key)
            if batcher is not None and batcher.session is not session:
                self._retire_locked(key, batcher)
                batcher = None
            if batcher is None:
                batcher = ContractBatcher(
                    session,
                    window_ms=self._window_ms,
                    max_batch=self._max_batch,
                    max_queue=self._max_queue,
                    name=str(key),
                )
                self._batchers[key] = batcher
            return batcher

    def _retire_locked(self, key: object, batcher: ContractBatcher) -> None:  # repro-lint: holds=_lock
        """Drop a batcher from the map, folding its counters into history."""
        self._retired_stats = self._retired_stats.merge(batcher.stats())
        del self._batchers[key]
        # close() drains the old batcher's queue on its own dispatcher
        # thread; don't join it while holding the service lock.
        batcher.close(wait=False)

    # ------------------------------------------------------------------
    # Blocking entry points
    # ------------------------------------------------------------------
    def answer_sync(
        self,
        key: object,
        contract: ApproximationContract,
        *,
        timeout: float | None = None,
        **resolve_kwargs: Any,
    ) -> SessionAnswer:
        """Coalesced ``answer()`` for ``key``'s session; blocks for the result."""
        return self.batcher(key, **resolve_kwargs).answer(contract, timeout=timeout)

    def train_to_sync(
        self,
        key: object,
        contract: ApproximationContract,
        *,
        recompute_at_theta_n: bool = False,
        timeout: float | None = None,
        **resolve_kwargs: Any,
    ) -> ApproximateTrainingResult:
        """Coalesced ``train_to()`` for ``key``'s session; blocks for the result."""
        return self.batcher(key, **resolve_kwargs).train_to(
            contract, recompute_at_theta_n=recompute_at_theta_n, timeout=timeout
        )

    # ------------------------------------------------------------------
    # Asyncio entry points
    # ------------------------------------------------------------------
    async def answer(
        self,
        key: object,
        contract: ApproximationContract,
        *,
        timeout: float | None = None,
        **resolve_kwargs: Any,
    ) -> SessionAnswer:
        """Awaitable coalesced ``answer()``.

        Submits to the key's batcher and awaits the request's future on
        the event loop; no thread waits for the result.  A timeout raises
        :class:`~repro.exceptions.ServingError` (a request still queued is
        cancelled and never executes), and a load-shed submission raises
        :class:`~repro.exceptions.ServingOverloadError`.
        """
        result: SessionAnswer = await self._serve(
            "answer", key, contract, False, timeout, resolve_kwargs
        )
        return result

    async def train_to(
        self,
        key: object,
        contract: ApproximationContract,
        *,
        recompute_at_theta_n: bool = False,
        timeout: float | None = None,
        **resolve_kwargs: Any,
    ) -> ApproximateTrainingResult:
        """Awaitable coalesced ``train_to()`` (see :meth:`answer`)."""
        result: ApproximateTrainingResult = await self._serve(
            "train", key, contract, recompute_at_theta_n, timeout, resolve_kwargs
        )
        return result

    async def _serve(
        self,
        kind: str,
        key: object,
        contract: ApproximationContract,
        recompute_at_theta_n: bool,
        timeout: float | None,
        resolve_kwargs: dict[str, Any],
    ) -> Any:
        name = "service.answer" if kind == "answer" else "service.train_to"
        # The span opens in the caller's task, so it joins the caller's
        # trace with no handoff: asyncio tasks and to_thread both carry
        # the context.
        with get_tracer().span(name, key=str(key)):
            if resolve_kwargs:
                # Resolving with spec/train/holdout may construct a session
                # (fit m₀, digest the data): never on the event loop.
                batcher = await asyncio.to_thread(
                    self.batcher, key, **resolve_kwargs
                )
            else:
                batcher = self.batcher(key)
            future = batcher.submit(kind, contract, recompute_at_theta_n)
            try:
                return await asyncio.wait_for(asyncio.wrap_future(future), timeout)
            except asyncio.TimeoutError:
                return batcher.expire(future, kind, timeout)

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def _housekeeping_loop(self) -> None:
        while not self._stop.wait(self._housekeeping_seconds):
            try:
                self.housekeep_once()
            except Exception:  # pragma: no cover - keep the loop alive
                pass

    def housekeep_once(self) -> dict[str, object]:
        """One housekeeping round; returns what it did (for tests/operators).

        Off the request path: idle-session eviction, and closing batchers
        whose session the registry no longer owns.
        """
        evicted = 0
        if self._idle_evict_seconds > 0:
            evicted = self.registry.evict_idle(self._idle_evict_seconds)
        dropped = self._drop_stale_batchers()
        return {
            "sessions_evicted": evicted,
            "batchers_dropped": dropped,
        }

    def _drop_stale_batchers(self) -> int:
        with self._lock:
            stale = [
                (key, batcher)
                for key, batcher in self._batchers.items()
                if self.registry.get(key) is not batcher.session
            ]
            for key, batcher in stale:
                self._retire_locked(key, batcher)
        return len(stale)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def batching_stats(self) -> BatcherStats:
        """Every batcher's counters (live + retired) merged into one snapshot."""
        with self._lock:
            batchers = list(self._batchers.values())
            merged = self._retired_stats
        for batcher in batchers:
            merged = merged.merge(batcher.stats())
        return merged

    def stats(self) -> RegistryStats:
        """The registry's fleet snapshot (see :meth:`batching_stats` for coalescing)."""
        return self.registry.stats()

    def metrics_snapshot(self) -> MetricsSnapshot:
        """One frozen scrape: the process registry plus this service's fleet.

        Counters and histograms come from the process registry; the
        cache/warm/batcher/registry gauges are rendered now from
        :meth:`stats` and :meth:`batching_stats`, so the scrape reports
        this service's fleet and no other (none once it is closed).
        """
        snapshot = get_metrics().snapshot()
        if self._closed:
            return snapshot
        return snapshot.including(
            fleet_instruments(self.registry.stats(), self.batching_stats())
        )

    def prometheus_metrics(self) -> str:
        """The scrape in Prometheus text-exposition format."""
        return render_prometheus(self.metrics_snapshot())

    def json_metrics(self) -> str:
        """The scrape as deterministic JSON (see :func:`repro.obs.render_json`)."""
        return render_json(self.metrics_snapshot())

    def flush(self) -> None:
        """Block until every queued request in every batcher has completed."""
        with self._lock:
            batchers = list(self._batchers.values())
        for batcher in batchers:
            batcher.flush()

    def close(self) -> None:
        """Stop housekeeping, drain and close every batcher.  Idempotent.

        The registry (and its sessions) stays usable — the service owns
        only the coalescing tier on top of it — and keeps no reference to
        the closed service; the service's later scrapes carry no fleet
        families.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batchers = list(self._batchers.items())
            self._batchers.clear()
            for _, batcher in batchers:
                self._retired_stats = self._retired_stats.merge(batcher.stats())
        self._stop.set()
        if self._housekeeper is not None:
            self._housekeeper.join()
        for _, batcher in batchers:
            batcher.close()

    def __enter__(self) -> "CoalescingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    async def __aenter__(self) -> "CoalescingService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self.batching_stats()
        return (
            f"CoalescingService(keys={len(self._batchers)}, "
            f"batches={snapshot.batches}, requests={snapshot.requests}, "
            f"passes_saved={snapshot.passes_saved})"
        )
