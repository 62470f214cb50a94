"""Tests for the thread-safe bounded LRU cache (repro.core.caching)."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.caching import CacheStats, LRUCache, default_sizeof
from repro.exceptions import BlinkMLError


class TestBasicOperations:
    def test_get_put_roundtrip(self):
        cache = LRUCache("t")
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert len(cache) == 1
        assert "a" in cache

    def test_get_or_compute_miss_then_hit(self):
        cache = LRUCache("t")
        calls = []
        value, hit = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert (value, hit) == (42, False)
        value, hit = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert (value, hit) == (42, True)
        assert len(calls) == 1

    def test_get_or_compute_returns_stored_object(self):
        cache = LRUCache("t")
        array = np.arange(4.0)
        first, _ = cache.get_or_compute("k", lambda: array)
        second, _ = cache.get_or_compute("k", lambda: np.zeros(4))
        assert first is array
        assert second is array

    def test_put_replaces_value_and_bytes(self):
        cache = LRUCache("t", max_bytes=1000)
        cache.put("a", np.zeros(10))  # 80 bytes
        cache.put("a", np.zeros(50))  # 400 bytes
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.bytes == 400

    def test_clear(self):
        cache = LRUCache("t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().bytes == 0
        assert cache.stats().evictions == 0  # clearing is not evicting

    def test_invalid_bounds_rejected(self):
        with pytest.raises(BlinkMLError):
            LRUCache("t", max_entries=0)
        with pytest.raises(BlinkMLError):
            LRUCache("t", max_bytes=0)


class TestEviction:
    def test_entry_capacity_respected(self):
        cache = LRUCache("t", max_entries=3)
        for i in range(10):
            cache.put(i, i)
            assert len(cache) <= 3
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.evictions == 7
        assert cache.keys() == [7, 8, 9]

    def test_lru_order_follows_recency_not_insertion(self):
        cache = LRUCache("t", max_entries=3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")  # refresh: "b" is now least recently used
        cache.put("d", "d")
        assert "b" not in cache
        assert all(key in cache for key in "acd")

    def test_byte_capacity_respected(self):
        cache = LRUCache("t", max_bytes=100)
        for i in range(10):
            cache.put(i, np.zeros(5))  # 40 bytes each
            assert cache.stats().bytes <= 100
        assert cache.stats().entries == 2

    def test_oversized_single_entry_is_kept(self):
        # A value larger than the whole budget still caches (evicting the
        # rest) so a hot oversized entry is not recomputed forever.
        cache = LRUCache("t", max_bytes=100)
        cache.put("small", np.zeros(5))
        cache.put("huge", np.zeros(1000))
        assert "huge" in cache
        assert "small" not in cache
        assert cache.stats().entries == 1

    def test_unbounded_never_evicts(self):
        cache = LRUCache("t")
        for i in range(1000):
            cache.put(i, np.zeros(100))
        stats = cache.stats()
        assert stats.entries == 1000
        assert stats.evictions == 0

    def test_evicted_entry_recomputes(self):
        cache = LRUCache("t", max_entries=1)
        computes = []

        def compute(value):
            def inner():
                computes.append(value)
                return value

            return inner

        assert cache.get_or_compute("a", compute(1)) == (1, False)
        assert cache.get_or_compute("b", compute(2)) == (2, False)  # evicts "a"
        assert cache.get_or_compute("a", compute(1)) == (1, False)  # recompute
        assert computes == [1, 2, 1]
        assert cache.stats().evictions == 2


class TestStats:
    def test_snapshot_fields(self):
        cache = LRUCache("diff", max_entries=4, max_bytes=1 << 20)
        cache.get_or_compute("k", lambda: np.zeros(8))
        cache.get_or_compute("k", lambda: np.zeros(8))
        cache.get("missing")
        stats = cache.stats()
        assert isinstance(stats, CacheStats)
        assert stats.name == "diff"
        assert stats.hits == 1
        assert stats.misses == 2  # one compute miss + one plain-get miss
        assert stats.entries == 1
        assert stats.bytes == 64
        assert stats.max_entries == 4
        assert stats.max_bytes == 1 << 20
        assert stats.requests == 3
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_hit_rate_of_unused_cache_is_zero(self):
        assert LRUCache("t").stats().hit_rate == 0.0

    def test_default_sizeof(self):
        assert default_sizeof(np.zeros(10)) == 80
        assert default_sizeof("x") > 0


class TestSingleFlight:
    def test_concurrent_misses_compute_once(self):
        cache = LRUCache("t")
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        compute_count = []

        def compute():
            compute_count.append(1)
            time.sleep(0.05)  # widen the window for would-be duplicates
            return np.arange(3.0)

        def request():
            barrier.wait()
            return cache.get_or_compute("k", compute)

        with ThreadPoolExecutor(n_threads) as pool:
            results = list(pool.map(lambda _: request(), range(n_threads)))

        assert len(compute_count) == 1  # single-flight: one computation
        values = [value for value, _ in results]
        assert all(value is values[0] for value in values)  # same object
        assert sum(1 for _, hit in results if not hit) == 1
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == n_threads - 1

    def test_different_keys_compute_concurrently(self):
        cache = LRUCache("t")
        running = threading.Barrier(2, timeout=5)

        def compute(key):
            def inner():
                # Both computations must be in flight at once; a cache-wide
                # compute lock would deadlock this barrier.
                running.wait()
                return key

            return inner

        with ThreadPoolExecutor(2) as pool:
            futures = [
                pool.submit(cache.get_or_compute, key, compute(key)) for key in ("a", "b")
            ]
            assert sorted(f.result(timeout=5)[0] for f in futures) == ["a", "b"]

    def test_compute_error_propagates_and_is_not_cached(self):
        cache = LRUCache("t")

        def boom():
            raise RuntimeError("compute failed")

        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", boom)
        assert "k" not in cache
        value, hit = cache.get_or_compute("k", lambda: 7)  # retry succeeds
        assert (value, hit) == (7, False)

    def test_publish_failure_cannot_strand_waiters(self):
        # Regression: if the publish step fails (here: a broken sizeof
        # raising inside _store), the leader must still set the in-flight
        # event — otherwise followers would block forever on a value that
        # was computed but never cached.
        def broken_sizeof(value):
            raise TypeError("sizeof exploded")

        cache = LRUCache("t", max_bytes=1000, sizeof=broken_sizeof)
        follower_may_start = threading.Event()

        def compute():
            follower_may_start.set()
            time.sleep(0.05)  # keep the follower waiting on the in-flight event
            return 42

        with ThreadPoolExecutor(2) as pool:
            leader = pool.submit(cache.get_or_compute, "k", compute)
            follower_may_start.wait(timeout=5)
            follower = pool.submit(cache.get_or_compute, "k", lambda: 42)
            with pytest.raises(TypeError):
                leader.result(timeout=5)
            # The follower either received the leader's value or retried and
            # failed on the same broken publish — it must not hang.
            try:
                value, hit = follower.result(timeout=5)
                assert (value, hit) == (42, True)
            except TypeError:
                pass
        assert "k" not in cache  # nothing was cached

    def test_error_reaches_waiting_threads(self):
        cache = LRUCache("t")
        release = threading.Event()
        follower_started = threading.Event()

        def boom():
            follower_started.wait(timeout=5)
            raise RuntimeError("compute failed")

        with ThreadPoolExecutor(2) as pool:
            leader = pool.submit(cache.get_or_compute, "k", boom)

            def follow():
                follower_started.set()
                return cache.get_or_compute("k", lambda: release.set() or 1)

            follower = pool.submit(follow)
            with pytest.raises(RuntimeError):
                leader.result(timeout=5)
            # The follower either re-raises the leader's error or (if it
            # arrived after the failure was cleaned up) recomputes.
            try:
                value, _ = follower.result(timeout=5)
                assert value == 1
            except RuntimeError:
                pass

    def test_clear_forgets_in_flight_compute(self):
        # A compute that began before clear() belongs to the old contents:
        # its value reaches the callers already waiting on it, but a caller
        # arriving after the clear computes afresh, and the old value is
        # published neither here nor to the warm tier.
        published = []

        class RecordingWarmTier:
            def load(self, key):
                return None

            def store(self, key, value):
                published.append((key, value))

        cache = LRUCache("t", warm_tier=RecordingWarmTier())
        started, release = threading.Event(), threading.Event()

        def old_compute():
            started.set()
            release.wait(timeout=5)
            return "old"

        with ThreadPoolExecutor(3) as pool:
            try:
                leader = pool.submit(cache.get_or_compute, "k", old_compute)
                assert started.wait(timeout=5)
                flight_event = cache._inflight["k"].event
                follower = pool.submit(cache.get_or_compute, "k", lambda: "unused")
                deadline = time.monotonic() + 5
                while not flight_event._cond._waiters:  # follower joined
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                cache.clear()
                late = pool.submit(cache.get_or_compute, "k", lambda: "new")
                assert late.result(timeout=2) == ("new", False)
            finally:
                release.set()
            assert leader.result(timeout=5) == ("old", False)
            assert follower.result(timeout=5) == ("old", True)
        assert cache.get("k") == "new"
        assert published == [("k", "new")]


class TestThreadHammer:
    def test_bounded_cache_under_concurrent_mixed_load(self):
        cache = LRUCache("t", max_entries=8, max_bytes=8 * 80)
        n_threads, n_keys, n_iterations = 8, 32, 200

        def expected(key):
            return np.full(10, float(key))

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(n_iterations):
                key = int(rng.integers(n_keys))
                value, _ = cache.get_or_compute(key, lambda k=key: expected(k))
                np.testing.assert_array_equal(value, expected(key))

        with ThreadPoolExecutor(n_threads) as pool:
            list(pool.map(worker, range(n_threads)))

        stats = cache.stats()
        assert stats.entries <= 8
        assert stats.bytes <= 8 * 80
        assert stats.hits + stats.misses == n_threads * n_iterations
        assert stats.evictions > 0  # 32 keys through an 8-slot cache

    def test_clear_racing_computes_never_leaves_stale_entries(self):
        # Each compute returns the generation it started in; clear() bumps
        # the generation.  Whenever the clearer holds the generation lock,
        # every cached entry must come from the current generation: a
        # compute that began before the last clear may not publish.
        cache = LRUCache("t")
        generation = [0]
        generation_lock = threading.Lock()
        stop = threading.Event()
        stale = []

        def compute():
            with generation_lock:
                started_in = generation[0]
            time.sleep(0.0005)
            return started_in

        def worker(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                cache.get_or_compute(int(rng.integers(4)), compute)

        def clearer():
            while not stop.is_set():
                time.sleep(0.002)
                with generation_lock:
                    stale.extend(
                        key for key in cache.keys() if cache.get(key) != generation[0]
                    )
                    generation[0] += 1
                    cache.clear()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(9) as pool:
                futures = [pool.submit(worker, seed) for seed in range(8)]
                futures.append(pool.submit(clearer))
                time.sleep(1.0)
                stop.set()
                for future in futures:
                    future.result(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert generation[0] > 10
        assert stale == []


class TestResizeAndEvictionCallbacks:
    def test_resize_shrink_evicts_immediately(self):
        cache = LRUCache("r", max_entries=8)
        for key in range(6):
            cache.put(key, key)
        cache.resize(max_entries=2)
        assert len(cache) == 2
        assert cache.keys() == [4, 5]  # LRU-first eviction
        assert cache.stats().evictions == 4
        assert cache.max_entries == 2

    def test_resize_byte_bound_and_grow(self):
        cache = LRUCache("r", max_bytes=400)
        for key in range(4):
            cache.put(key, np.zeros(10))  # 80 bytes each
        assert len(cache) == 4
        cache.resize(max_bytes=160)
        assert len(cache) == 2
        assert cache.stats().bytes <= 160
        cache.resize(max_bytes=None)  # unbounded again
        for key in range(10, 20):
            cache.put(key, np.zeros(10))
        assert len(cache) == 12

    def test_resize_leaves_omitted_bound_unchanged(self):
        cache = LRUCache("r", max_entries=4, max_bytes=1000)
        cache.resize(max_entries=2)
        assert cache.max_entries == 2
        assert cache.max_bytes == 1000
        cache.resize(max_bytes=500)
        assert cache.max_entries == 2
        assert cache.max_bytes == 500

    def test_resize_validates_bounds(self):
        cache = LRUCache("r")
        with pytest.raises(BlinkMLError):
            cache.resize(max_entries=0)
        with pytest.raises(BlinkMLError):
            cache.resize(max_bytes=-1)
