"""Thread-safe bounded caches for the contract-serving layer.

PR 2's :class:`~repro.core.session.EstimationSession` made multi-contract
serving cheap by caching sorted difference vectors, trained models and
sample-size searches — but the caches were plain dicts: unbounded, unsafe
under concurrent ``answer()`` calls, and unable to report hit rates.  This
module is the shared substrate every session cache now sits on:

* :class:`LRUCache` — least-recently-used eviction bounded by **entries**
  and/or **approximate bytes**, an ``RLock`` around every mutation, and
  per-cache :class:`CacheStats` hit/miss/eviction counters;
* :meth:`LRUCache.get_or_compute` — the serving primitive: returns
  ``(value, hit)`` so callers learn the hit/miss fact *directly* (never by
  diffing shared counters, which misreports under interleaving), and
  guarantees **single-flight** computation — when two threads ask for the
  same missing key, exactly one runs the compute function and the other
  blocks on the result, so the k streamed GEMMs behind a sorted-difference
  vector can never run twice for one key;
* :meth:`LRUCache.resize` — the cross-session registry
  (:mod:`repro.core.registry`) rebalances each member session's byte caps
  from a global pool as the fleet grows and shrinks, so bounds are mutable
  at runtime: shrinking evicts down to the new bounds immediately.

Locking discipline (see ``docs/architecture.md``): the cache lock is never
held while a compute function runs.  A miss registers an in-flight marker
under the lock, releases it, computes, then re-acquires the lock to publish
the value.  Compute functions may therefore take other locks (the parameter
sampler's, another cache's) without deadlock risk, as long as no cycle of
``get_or_compute`` calls exists between caches — the session's three caches
never compute through one another.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from repro.exceptions import BlinkMLError


class WarmTier(Protocol):
    """A second, slower cache tier probed beneath :meth:`LRUCache.get_or_compute`.

    The protocol the cross-process warm cache adapters implement (see
    :mod:`repro.data.store.warm_cache`): ``load`` returns the value for a
    cache key or ``None`` (a warm miss — including any verification
    failure; the tier must never surface an unverified value), ``store``
    publishes a freshly computed value (may be asynchronous / best-effort).
    Both are called outside the cache lock, on the computing thread, so
    implementations may take their own locks and do I/O freely.
    """

    def load(self, key: Hashable) -> Any | None: ...  # pragma: no cover - protocol

    def store(self, key: Hashable, value: Any) -> None: ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of one cache's counters and occupancy.

    ``hits`` counts every request served without running a compute
    function, including single-flight followers that waited on another
    thread's in-progress computation (they performed zero work themselves).
    ``bytes`` is the approximate sum of the stored values' sizes as
    reported by the cache's ``sizeof`` function.
    """

    name: str
    hits: int
    misses: int
    evictions: int
    entries: int
    bytes: int
    max_entries: int | None
    max_bytes: int | None

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from cache (0.0 when never used)."""
        return self.hits / self.requests if self.requests else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Fold two snapshots of same-named caches into one roll-up.

        Counters and occupancy sum; bounds sum too, with ``None``
        (unbounded) absorbing — any unbounded member makes the roll-up
        unbounded.  Associative and commutative up to the kept ``name``,
        so fleet-wide totals (:meth:`RegistryStats.cache_totals
        <repro.core.registry.RegistryStats.cache_totals>`) can fold
        members in any order.
        """
        if other.name != self.name:
            raise BlinkMLError(
                f"cannot merge cache stats {self.name!r} with {other.name!r}"
            )

        def _add(a: int | None, b: int | None) -> int | None:
            return None if a is None or b is None else a + b

        return CacheStats(
            name=self.name,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            entries=self.entries + other.entries,
            bytes=self.bytes + other.bytes,
            max_entries=_add(self.max_entries, other.max_entries),
            max_bytes=_add(self.max_bytes, other.max_bytes),
        )


def default_sizeof(value: Any) -> int:
    """Approximate in-memory size of a cached value in bytes.

    NumPy arrays report their buffer size; objects exposing ``nbytes``
    (e.g. array wrappers) are trusted; everything else falls back to
    ``sys.getsizeof`` with a small constant when even that is unavailable.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    try:
        return int(sys.getsizeof(value))
    except TypeError:
        return 64


class _InFlight:
    """Marker for a key whose value is being computed by some thread."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


class _Unset:
    """Sentinel distinguishing "leave unchanged" from ``None`` (unbounded)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


_UNSET = _Unset()


class LRUCache:
    """A thread-safe LRU cache bounded by entry count and approximate bytes.

    Parameters
    ----------
    name:
        Label used in stats snapshots and error messages.
    max_entries:
        Maximum number of stored entries; ``None`` means unbounded.
    max_bytes:
        Approximate byte budget across stored values; ``None`` means
        unbounded.  A single value larger than the whole budget is still
        stored (evicting everything else) so a hot oversized entry is not
        recomputed forever; the budget is honoured whenever at least two
        entries are present.
    sizeof:
        Maps a value to its approximate size in bytes
        (:func:`default_sizeof` when omitted).
    warm_tier:
        Optional second tier (:class:`WarmTier`) probed by
        :meth:`get_or_compute` between an in-memory miss and the compute
        function: miss → ``warm_tier.load(key)`` → compute → write-behind
        ``warm_tier.store(key, value)``.  A warm load publishes into this
        cache and reports ``hit=True`` (the call ran no compute), exactly
        like a single-flight follower; both hooks run outside the cache
        lock on the computing thread.  Plain :meth:`get`/:meth:`put` never
        touch the warm tier.

    Both bounds are enforced on every insert by evicting least-recently-used
    entries; ``get``/``get_or_compute`` refresh recency.  All operations are
    serialised by an internal ``RLock``, but compute functions passed to
    :meth:`get_or_compute` run *outside* the lock (see the module docstring
    for the single-flight protocol).
    """

    def __init__(
        self,
        name: str = "cache",
        max_entries: int | None = None,
        max_bytes: int | None = None,
        sizeof: Callable[[Any], int] | None = None,
        warm_tier: WarmTier | None = None,
    ):
        self._validate_bound("max_entries", max_entries, name=name)
        self._validate_bound("max_bytes", max_bytes, name=name)
        self.name = name
        self.max_entries = max_entries  # guarded-by: _lock
        self.max_bytes = max_bytes  # guarded-by: _lock
        self._sizeof = sizeof or default_sizeof
        self._warm_tier = warm_tier
        self._lock = threading.RLock()
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()  # guarded-by: _lock
        self._bytes = 0  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._inflight: dict[Hashable, _InFlight] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Plain mapping operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or replace) ``key`` and evict until within bounds."""
        with self._lock:
            self._store(key, value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does **not** count as a hit/miss or touch recency."""
        with self._lock:
            return key in self._entries

    def keys(self) -> list[Hashable]:
        """The cached keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries.keys())

    def clear(self) -> None:
        """Drop every entry (counters are preserved; not counted as evictions).

        In-flight computations are forgotten too: a caller arriving after
        the clear computes afresh instead of waiting on a flight that began
        before it, and such a flight's value reaches only the callers that
        were already waiting on it — it is cached neither here nor in the
        warm tier.
        """
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._inflight.clear()

    # ------------------------------------------------------------------
    # Single-flight compute
    # ------------------------------------------------------------------
    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> tuple[Any, bool]:
        """Return ``(value, hit)``; run ``compute`` at most once per miss.

        ``hit`` is True when this call did not itself run ``compute`` — a
        cached entry or a wait on another thread's in-progress computation.
        Callers needing the hit/miss fact (e.g. ``SessionAnswer.from_cache``)
        must use this flag rather than diffing the public counters, which
        other threads advance concurrently.

        With a ``warm_tier`` configured, the leader probes it before
        computing: a verified warm entry is published into this cache and
        returned with ``hit=True`` (zero compute ran — the defining fact
        the flag reports), and a fresh compute result is handed to
        ``warm_tier.store`` after local publication so other processes can
        reuse it.

        If ``compute`` raises, the error propagates to the computing thread
        *and* to every thread waiting on the same key; nothing is cached, so
        a later request retries the computation.  A flight that
        :meth:`clear` forgot returns its value to its own callers only.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry[0], True
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
            with self._lock:
                self._hits += 1
            return flight.value, True

        if self._warm_tier is not None:
            try:
                warm_value = self._warm_tier.load(key)
            except BaseException as exc:
                # A raising warm tier must release the in-flight marker or
                # every follower deadlocks (adapters are expected to map
                # corruption to a miss; this path is for genuine bugs).
                flight.error = exc
                with self._lock:
                    self._release(key, flight)
                flight.event.set()
                raise
            if warm_value is not None:
                flight.value = warm_value
                try:
                    with self._lock:
                        self._hits += 1
                        if self._release(key, flight):
                            self._store(key, warm_value)
                finally:
                    flight.event.set()
                return warm_value, True
        try:
            value = compute()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._release(key, flight)
            flight.event.set()
            raise
        flight.value = value
        try:
            with self._lock:
                self._misses += 1
                current = self._release(key, flight)
                if current:
                    self._store(key, value)
        finally:
            # Set the event even if the publish fails (e.g. a user-supplied
            # sizeof raising in _store): followers already hold
            # flight.value, and leaving the event unset would block them
            # forever.  The value simply is not cached; the leader re-raises.
            flight.event.set()
        if current and self._warm_tier is not None:
            # Write-behind publication for other processes; best-effort by
            # contract (the adapter may enqueue, drop under pressure, or
            # write synchronously — never block the answer on durability).
            self._warm_tier.store(key, value)
        return value, False

    # ------------------------------------------------------------------
    # Runtime bound changes
    # ------------------------------------------------------------------
    def resize(
        self,
        *,
        max_entries: int | None | _Unset = _UNSET,
        max_bytes: int | None | _Unset = _UNSET,
    ) -> None:
        """Change the bounds at runtime; shrinking evicts down immediately.

        Omitted bounds are left unchanged; ``None`` means unbounded.  The
        cross-session registry calls this to rebalance each member session's
        share of the global byte pool as the fleet grows and shrinks.
        Evicted entries count in ``CacheStats.evictions`` exactly as
        insert-driven evictions do.
        """
        with self._lock:
            if not isinstance(max_entries, _Unset):
                self._validate_bound("max_entries", max_entries, name=self.name)
                self.max_entries = max_entries
            if not isinstance(max_bytes, _Unset):
                self._validate_bound("max_bytes", max_bytes, name=self.name)
                self.max_bytes = max_bytes
            self._evict_to_bounds()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_bound(label: str, bound: int | None, *, name: str) -> None:
        if bound is not None and bound < 1:
            raise BlinkMLError(f"{name}: {label} must be at least 1 or None")

    def _release(self, key: Hashable, flight: _InFlight) -> bool:  # repro-lint: holds=_lock
        """Unregister ``flight``; False when :meth:`clear` already forgot it."""
        if self._inflight.get(key) is not flight:
            return False
        del self._inflight[key]
        return True

    def _store(self, key: Hashable, value: Any) -> None:  # repro-lint: holds=_lock
        """Insert under the lock, then evict LRU-first to make room."""
        nbytes = max(0, int(self._sizeof(value)))
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        self._evict_to_bounds()

    def _evict_to_bounds(self) -> None:  # repro-lint: holds=_lock
        """Evict LRU-first until both bounds hold (lock held by caller).

        At least one entry is always retained so a single value larger than
        the whole byte budget is stored rather than recomputed forever.
        """
        while len(self._entries) > 1 and (
            (self.max_entries is not None and len(self._entries) > self.max_entries)
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self._bytes -= evicted_bytes
            self._evictions += 1

    def stats(self) -> CacheStats:
        """A consistent snapshot of counters and occupancy."""
        with self._lock:
            return CacheStats(
                name=self.name,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                bytes=self._bytes,
                max_entries=self.max_entries,
                max_bytes=self.max_bytes,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self.stats()
        return (
            f"LRUCache({self.name!r}, entries={snapshot.entries}/{self.max_entries}, "
            f"bytes={snapshot.bytes}/{self.max_bytes}, hits={snapshot.hits}, "
            f"misses={snapshot.misses}, evictions={snapshot.evictions})"
        )
