"""Cross-session serving registry with a global byte budget.

One :class:`~repro.core.session.EstimationSession` serves every (ε, δ)
contract against one (model, dataset) pair; a serving *fleet* holds many
pairs live at once.  PR 3 bounded the per-session caches, but a fleet of
sessions still shared nothing: no collective memory bound, no invalidation
when training data changes, and every caller constructing sessions by hand.
:class:`SessionRegistry` is the tier that turns the session layer into a
server:

* **keyed ownership** — :meth:`SessionRegistry.get_or_create` maps an
  application key (e.g. ``"fraud-lr/eu"``) to a live session, constructing
  it on first use and serving the same instance afterwards;
* **single-flight construction** — concurrent ``get_or_create`` calls for
  the same missing key train m_0 exactly once: one thread constructs, the
  others block on the result (the same protocol as
  :meth:`repro.core.caching.LRUCache.get_or_compute`);
* **global byte budget, split evenly** — the registry owns a byte pool
  (``max_total_bytes``) shared by every member session.  Whenever the
  fleet grows or shrinks, each member's cache caps are reset (via
  :meth:`EstimationSession.resize_cache_budget`) to ``pool // N``, so the
  sum of shares never exceeds the pool and the fleet invariant
  ``stats().bytes <= max_total_bytes`` holds structurally no matter how
  many pairs are live;
* **LRU eviction of whole idle sessions** — when admitting a session would
  exceed ``max_sessions``, or would split the pool thinner than
  ``min_session_bytes`` per member, the registry evicts the session that
  has been idle longest (by :attr:`EstimationSession.last_used_at`, which
  every served request refreshes — including requests made directly on a
  session handle, not through the registry);
* **invalidation** — :meth:`SessionRegistry.invalidate` drops a key
  explicitly, and every ``get_or_create`` checks a content fingerprint of
  the offered training/holdout data (:meth:`repro.data.dataset.Dataset.content_digest`)
  against the fingerprint the live session was built from.  A changed
  dataset therefore *always* misses: the stale session is discarded and a
  fresh one is constructed, so stale sorted-difference vectors can never be
  served.  Out-of-core :class:`~repro.data.store.ShardedDataset` members
  fingerprint through their manifest-level digest — equal to the digest of
  the materialised data but read straight from the manifest, so a
  terabyte-scale holdout is fingerprinted without touching a single row.

Eviction and invalidation only drop the registry's reference: a caller
still holding the session handle can keep using it (its caches keep their
last caps but no longer count against the pool).  Evicted pairs recompute
bitwise-identically on their next ``get_or_create`` when constructed with
the same seed, because the Monte-Carlo vectors are determined by the cached
base draws, not by request order.

Byte accounting matches the session caches' (approximate ``sizeof``); the
one structural exception is inherited from :class:`~repro.core.caching.LRUCache` —
a single cached value larger than a session's whole share is still stored.
With the default k = 128 parameter samples a difference vector is ~1 KB,
orders of magnitude below any sane share, so the pool bound is tight in
practice.

Thread safety: one registry lock guards the fleet map, counters and
share assignment; session construction runs *outside* it (single-flight), and
member sessions remain individually thread-safe as before, so worker
threads may mix ``get_or_create`` with direct ``session.answer()`` calls
freely.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, Literal

from repro.config import (
    DEFAULT_REGISTRY_CACHE_BYTES,
    DEFAULT_REGISTRY_MAX_SESSIONS,
    DEFAULT_REGISTRY_MIN_SESSION_BYTES,
)
from repro.core.caching import CacheStats, _InFlight
from repro.core.session import EstimationSession, SessionRefresh
from repro.data.dataset import Dataset
from repro.data.store import ShardedDataset
from repro.data.store.warm_cache import WarmCacheStats, WarmCacheTier, resolve_warm_cache
from repro.exceptions import BlinkMLError
from repro.models.base import ModelClassSpec
from repro.obs import get_metrics

# Fleet lifecycle *events* (repro.obs): the cumulative totals in
# RegistryStats are rendered as gauges in the owning service's scrape;
# these counters attribute each event to a reason as it happens.
_REBALANCE_EVENTS = get_metrics().counter(
    "repro_registry_rebalance_total",
    "Byte-pool re-splits applied on fleet membership changes.",
)
_EVICTION_EVENTS = get_metrics().counter(
    "repro_registry_eviction_events_total",
    "Whole-session evictions, by reason (capacity admission vs idleness).",
    ("reason",),
)


@dataclass(frozen=True)
class SessionInfo:
    """Per-session row of a :class:`RegistryStats` snapshot.

    Every member holds the same byte share,
    :attr:`RegistryStats.session_budget_bytes`.
    """

    key: object
    fingerprint: str
    bytes: int
    idle_seconds: float
    cache_stats: dict[str, CacheStats]


@dataclass(frozen=True)
class RegistryStats:
    """Immutable snapshot of the fleet: occupancy, budget, counters.

    ``bytes`` sums the member sessions' cache bytes — the quantity the
    global budget bounds.  ``hits`` counts ``get_or_create`` calls served
    by a live fingerprint-matching session (including single-flight
    followers); ``misses`` counts session constructions.  ``evictions``
    counts whole sessions evicted for capacity/budget/idleness;
    ``invalidations`` explicit :meth:`SessionRegistry.invalidate` drops;
    ``fingerprint_invalidations`` sessions discarded because the offered
    dataset's content digest no longer matched; ``refreshes`` live sessions
    that adopted appended data in place via :meth:`SessionRegistry.refresh`
    instead of being torn down.
    """

    sessions: int
    max_sessions: int | None
    bytes: int
    max_total_bytes: int | None
    session_budget_bytes: int | None
    hits: int
    misses: int
    evictions: int
    invalidations: int
    fingerprint_invalidations: int
    per_session: tuple[SessionInfo, ...]
    refreshes: int = 0
    #: snapshot of the registry's shared cross-process warm tier
    #: (:class:`~repro.data.store.warm_cache.WarmCacheStats`: warm hits,
    #: misses, quarantined entries, on-disk bytes), or ``None`` when no
    #: warm tier is configured.
    warm: WarmCacheStats | None = None

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of ``get_or_create`` calls served by a live session."""
        return self.hits / self.requests if self.requests else 0.0

    def cache_totals(self) -> dict[str, CacheStats]:
        """Fleet-wide roll-up of the member sessions' cache counters.

        Returns one aggregated :class:`~repro.core.caching.CacheStats` per
        cache name ("diff", "model", "size"), summing hits/misses/evictions/
        entries/bytes across every live session (bounds are reported as the
        per-cache sums too, ``None`` if any member is unbounded).
        """
        totals: dict[str, CacheStats] = {}
        for info in self.per_session:
            for name, stats in info.cache_stats.items():
                base = totals.get(name)
                totals[name] = stats if base is None else base.merge(stats)
        return totals


class _Member:
    """A live fleet member: the session and its data fingerprint."""

    __slots__ = ("session", "fingerprint")

    def __init__(self, session: EstimationSession, fingerprint: str) -> None:
        self.session = session
        self.fingerprint = fingerprint


class SessionRegistry:
    """Owns a fleet of keyed :class:`EstimationSession`\\ s under one byte pool.

    Parameters
    ----------
    max_sessions:
        Most sessions live at once (``None`` = unbounded by count); admitting
        one more evicts the longest-idle member first.  Default
        ``DEFAULT_REGISTRY_MAX_SESSIONS``.
    max_total_bytes:
        Global cache-byte pool shared by the whole fleet (``None`` =
        unbounded).  Re-split evenly among members on every membership
        change.  Default ``DEFAULT_REGISTRY_CACHE_BYTES``.
    min_session_bytes:
        Smallest useful per-session share of the pool; rather than splitting
        thinner, the registry evicts, so this bounds how many members the
        pool admits.  Default ``DEFAULT_REGISTRY_MIN_SESSION_BYTES``.
    session_factory:
        Callable with :class:`EstimationSession`'s signature used to
        construct members (injectable for tests).
    warm_cache:
        Cross-process warm tier shared by *every* member session
        (:class:`~repro.data.store.warm_cache.WarmCacheTier`): a tier
        instance, a directory path, ``None`` to consult
        ``REPRO_WARM_CACHE_DIR`` (disabled when unset), or ``False`` to
        force cold construction.  When a tier
        resolves it is injected into every ``get_or_create`` construction
        (explicit ``warm_cache`` in ``session_kwargs`` wins) and its
        counters are reported as :attr:`RegistryStats.warm`.
    """

    def __init__(
        self,
        *,
        max_sessions: int | None = DEFAULT_REGISTRY_MAX_SESSIONS,
        max_total_bytes: int | None = DEFAULT_REGISTRY_CACHE_BYTES,
        min_session_bytes: int = DEFAULT_REGISTRY_MIN_SESSION_BYTES,
        session_factory: Callable[..., EstimationSession] = EstimationSession,
        warm_cache: WarmCacheTier | str | os.PathLike[str] | Literal[False] | None = None,
    ):
        if max_sessions is not None and max_sessions < 1:
            raise BlinkMLError("registry: max_sessions must be at least 1 or None")
        if max_total_bytes is not None and max_total_bytes < 1:
            raise BlinkMLError("registry: max_total_bytes must be at least 1 or None")
        if min_session_bytes < 1:
            raise BlinkMLError("registry: min_session_bytes must be at least 1")
        if max_total_bytes is not None and max_total_bytes < min_session_bytes:
            raise BlinkMLError(
                "registry: max_total_bytes must be at least min_session_bytes "
                f"({max_total_bytes} < {min_session_bytes})"
            )
        self.max_sessions = max_sessions
        self.max_total_bytes = max_total_bytes
        self.min_session_bytes = int(min_session_bytes)
        self._session_factory = session_factory
        # Resolved once: every member session shares this one tier (one
        # writer thread, one stats surface) instead of each resolving its
        # own.  None when neither argument nor environment enables it.  An
        # explicit ``False`` is remembered separately: member sessions must
        # be forced cold too, or they would re-resolve the environment.
        self._warm_disabled = warm_cache is False
        self._warm_cache = resolve_warm_cache(warm_cache)
        self._lock = threading.RLock()
        self._members: dict[object, _Member] = {}  # guarded-by: _lock
        self._inflight: dict[object, _InFlight] = {}  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._invalidations = 0  # guarded-by: _lock
        self._fingerprint_invalidations = 0  # guarded-by: _lock
        self._refreshes = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Fleet capacity
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int | None:
        """Most members the configured bounds admit (``None`` = unbounded).

        The byte pool bounds the count too: each member must receive at
        least ``min_session_bytes`` of the pool.
        """
        by_count = self.max_sessions
        if self.max_total_bytes is None:
            return by_count
        by_bytes = max(1, self.max_total_bytes // self.min_session_bytes)
        return by_bytes if by_count is None else min(by_count, by_bytes)

    def session_budget_bytes(self, n_sessions: int | None = None) -> int | None:
        """Every member's share of the pool at the given fleet size."""
        if self.max_total_bytes is None:
            return None
        with self._lock:
            count = len(self._members) if n_sessions is None else n_sessions
        return max(1, self.max_total_bytes // max(1, count))

    # ------------------------------------------------------------------
    # Fingerprints
    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(
        train: Dataset | ShardedDataset, holdout: Dataset | ShardedDataset
    ) -> str:
        """Joint content digest of the data a session is built from.

        The sorted-difference vectors a session caches depend on the
        holdout as much as on the training set, so both are fingerprinted.
        Sharded members answer from their manifest digest (no row I/O, no
        materialisation); the digest is defined to equal the materialised
        dataset's, so mixing storage tiers cannot alias distinct data.
        """
        return f"{train.content_digest()}:{holdout.content_digest()}"

    # ------------------------------------------------------------------
    # The serving entry point
    # ------------------------------------------------------------------
    def get_or_create(
        self,
        key: object,
        spec: ModelClassSpec,
        train: Dataset | ShardedDataset,
        holdout: Dataset | ShardedDataset,
        **session_kwargs: Any,
    ) -> EstimationSession:
        """Return the live session for ``key``, constructing it if needed.

        A live session is served only when the offered ``train``/``holdout``
        data still matches the content fingerprint it was built from; a
        mismatch discards the stale session and constructs a fresh one (so
        a changed training set can never be served stale cached answers).
        Construction is single-flight: concurrent calls for the same
        missing key train m_0 once.  ``session_kwargs`` are forwarded to
        the session factory on construction (pass ``rng=<seed>`` for
        reproducible fleets) and ignored on a hit.
        """
        fingerprint = self.fingerprint(train, holdout)
        while True:
            with self._lock:
                member = self._members.get(key)
                if member is not None:
                    if member.fingerprint == fingerprint:
                        self._hits += 1
                        member.session._touch()
                        return member.session
                    # Fingerprint mismatch: the data changed under the key.
                    del self._members[key]
                    self._fingerprint_invalidations += 1
                    self._rebalance_locked()
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True
                else:
                    leader = False
            if leader:
                break
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            # Loop rather than trusting the leader's session blindly: this
            # caller's datasets may differ from the leader's, and the member
            # may already have been evicted/invalidated again.  The re-check
            # serves it only on a fingerprint match.

        try:
            if self._warm_cache is not None:
                # Injected only when a tier actually resolved, so factories
                # without the parameter (injected test fakes) keep working
                # in warm-disabled runs; an explicit caller value wins.
                session_kwargs.setdefault("warm_cache", self._warm_cache)
            elif self._warm_disabled:
                # Registry-level opt-out beats the environment for members.
                session_kwargs.setdefault("warm_cache", False)
            session = self._session_factory(spec, train, holdout, **session_kwargs)
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                del self._inflight[key]
            flight.event.set()
            raise
        # Unlike LRUCache.get_or_compute, followers never consume
        # flight.value: they loop back and re-resolve through _members so
        # the fingerprint is re-checked against *their* datasets.
        try:
            with self._lock:
                del self._inflight[key]
                self._misses += 1
                self._members[key] = _Member(session, fingerprint)
                self._evict_to_capacity_locked(protect=key)
                self._rebalance_locked()
        finally:
            flight.event.set()
        return session

    # ------------------------------------------------------------------
    # Lookup / membership
    # ------------------------------------------------------------------
    def get(self, key: object) -> EstimationSession | None:
        """The live session for ``key`` (no construction, no fingerprint check)."""
        with self._lock:
            member = self._members.get(key)
            return None if member is None else member.session

    def keys(self) -> list[object]:
        with self._lock:
            return list(self._members.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._members

    # ------------------------------------------------------------------
    # Invalidation and eviction
    # ------------------------------------------------------------------
    def invalidate(self, key: object) -> bool:
        """Drop ``key``'s session; True if one was live.

        The next ``get_or_create`` for the key constructs afresh.  Byte
        shares of the remaining members grow to fill the freed pool.
        """
        with self._lock:
            member = self._members.pop(key, None)
            if member is None:
                return False
            self._invalidations += 1
            self._rebalance_locked()
            return True

    def clear(self) -> None:
        """Drop every session (counted as invalidations, not evictions)."""
        with self._lock:
            self._invalidations += len(self._members)
            self._members.clear()

    def refresh(self, key: object) -> SessionRefresh | None:
        """Fold appended data into ``key``'s live session *in place*.

        The incremental alternative to the fingerprint-mismatch path of
        :meth:`get_or_create`: where a mismatch discards the session and
        retrains m_0 from scratch, ``refresh`` asks the session to adopt
        the grown store via :meth:`EstimationSession.refresh` — O(new
        shards) when the session streams statistics from a sidecar-indexed
        store — and then re-fingerprints the member from the reloaded
        manifests, so the *next* ``get_or_create`` offering the grown data
        is a hit instead of a teardown.  Returns the session's
        :class:`~repro.core.session.SessionRefresh` report, or ``None``
        when no session is live under ``key``.  The (potentially slow)
        session refresh runs outside the registry lock.
        """
        with self._lock:
            member = self._members.get(key)
        if member is None:
            return None
        outcome = member.session.refresh()
        with self._lock:
            # Re-resolve: the member may have been evicted while we worked.
            current = self._members.get(key)
            if current is member:
                member.fingerprint = self.fingerprint(
                    member.session.train_data, member.session.holdout
                )
                self._refreshes += 1
        return outcome

    def evict_idle(self, idle_seconds: float) -> int:
        """Evict every member idle for longer than ``idle_seconds``; count."""
        now = time.monotonic()
        with self._lock:
            stale = [
                key
                for key, member in self._members.items()
                if now - member.session.last_used_at > idle_seconds
            ]
            for key in stale:
                del self._members[key]
                self._evictions += 1
            if stale:
                _EVICTION_EVENTS.inc(len(stale), reason="idle")
                self._rebalance_locked()
            return len(stale)

    def _evict_to_capacity_locked(self, protect: object) -> None:  # repro-lint: holds=_lock
        """Evict longest-idle members until within capacity (lock held).

        ``protect`` (the key just admitted) is never the victim, so a
        fleet at capacity always turns over its idlest member instead.
        """
        capacity = self.capacity
        if capacity is None:
            return
        while len(self._members) > max(1, capacity):
            victim = min(
                (key for key in self._members if key != protect),
                key=lambda key: self._members[key].session.last_used_at,
                default=None,
            )
            if victim is None:
                return
            del self._members[victim]
            self._evictions += 1
            _EVICTION_EVENTS.inc(1, reason="capacity")

    def _rebalance_locked(self) -> None:  # repro-lint: holds=_lock
        """Re-split the byte pool evenly across the current members (lock held).

        Every member gets ``max(1, pool // N)``; the shares sum to at most
        the pool, so ``stats().bytes <= max_total_bytes`` holds structurally.
        """
        share = self.session_budget_bytes(len(self._members))
        if share is None or not self._members:
            return
        for member in self._members.values():
            member.session.resize_cache_budget(share)
        _REBALANCE_EVENTS.inc(1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def warm_cache(self) -> WarmCacheTier | None:
        """The fleet-shared cross-process warm tier (``None`` = disabled)."""
        return self._warm_cache

    def stats(self) -> RegistryStats:
        """A snapshot of fleet occupancy, byte usage and counters."""
        # The warm snapshot scans a directory (one stat per entry): taken
        # outside the lock, so a scrape never stalls a request's get().
        warm = None if self._warm_cache is None else self._warm_cache.stats()
        with self._lock:
            rows = []
            for key, member in self._members.items():
                cache_stats = member.session.cache_stats()
                rows.append(
                    SessionInfo(
                        key=key,
                        fingerprint=member.fingerprint,
                        bytes=sum(entry.bytes for entry in cache_stats.values()),
                        idle_seconds=member.session.idle_seconds,
                        cache_stats=cache_stats,
                    )
                )
            per_session = tuple(rows)
            return RegistryStats(
                sessions=len(self._members),
                max_sessions=self.max_sessions,
                bytes=sum(info.bytes for info in per_session),
                max_total_bytes=self.max_total_bytes,
                session_budget_bytes=self.session_budget_bytes(len(self._members)),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                fingerprint_invalidations=self._fingerprint_invalidations,
                per_session=per_session,
                refreshes=self._refreshes,
                warm=warm,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self.stats()
        return (
            f"SessionRegistry(sessions={snapshot.sessions}/{self.max_sessions}, "
            f"bytes={snapshot.bytes}/{self.max_total_bytes}, "
            f"hits={snapshot.hits}, misses={snapshot.misses}, "
            f"evictions={snapshot.evictions})"
        )
