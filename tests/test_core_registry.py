"""Tests for the cross-session serving registry (repro.core.registry).

Mechanics (capacity, eviction order, rebalancing, counters) are exercised
against a lightweight fake session so they are fast and fully
deterministic; the serving guarantees — single-flight construction, the
global byte budget, fingerprint invalidation, threaded-vs-serial identity —
are exercised against real :class:`EstimationSession` fleets on small
synthetic workloads.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.caching import CacheStats
from repro.core.contract import ApproximationContract
from repro.core.registry import SessionRegistry
from repro.data.dataset import Dataset
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.store.warm_cache import WarmCacheTier
from repro.data.synthetic import higgs_like
from repro.exceptions import BlinkMLError
from repro.models.logistic_regression import LogisticRegressionSpec

SPEC = LogisticRegressionSpec(regularization=1e-3)


def small_splits(seed: int = 5):
    data = higgs_like(n_rows=1_500, n_features=8, seed=seed)
    return train_holdout_test_split(
        data,
        SplitSpec(holdout_fraction=0.2, test_fraction=0.1),
        rng=np.random.default_rng(seed),
    )


def session_kwargs(seed: int = 0) -> dict:
    return dict(initial_sample_size=150, n_parameter_samples=16, rng=seed)


# ----------------------------------------------------------------------
# Fake-session mechanics
# ----------------------------------------------------------------------
class FakeSession:
    """Just enough surface for the registry: budget, bytes, idle clock."""

    def __init__(self, spec, train, holdout, **kwargs):
        self.spec = spec
        self.kwargs = kwargs
        self.budget: int | None = None
        self.budget_history: list[int] = []
        self._last_used_at = time.monotonic()

    def resize_cache_budget(self, total_bytes: int) -> None:
        self.budget = int(total_bytes)
        self.budget_history.append(self.budget)

    def cache_stats(self) -> dict[str, CacheStats]:
        return {}

    @property
    def last_used_at(self) -> float:
        return self._last_used_at

    @property
    def idle_seconds(self) -> float:
        return time.monotonic() - self._last_used_at

    def _touch(self) -> None:
        self._last_used_at = time.monotonic()


@pytest.fixture
def fake_registry():
    def build(**kwargs):
        kwargs.setdefault("session_factory", FakeSession)
        kwargs.setdefault("min_session_bytes", 1)
        return SessionRegistry(**kwargs)

    return build


@pytest.fixture(scope="module")
def tiny_splits():
    return small_splits()


def test_get_or_create_serves_same_instance(fake_registry, tiny_splits):
    registry = fake_registry(max_sessions=4, max_total_bytes=1024)
    first = registry.get_or_create("k", SPEC, tiny_splits.train, tiny_splits.holdout)
    second = registry.get_or_create("k", SPEC, tiny_splits.train, tiny_splits.holdout)
    assert first is second
    stats = registry.stats()
    assert (stats.hits, stats.misses) == (1, 1)
    assert len(registry) == 1 and "k" in registry
    assert registry.get("k") is first
    assert registry.get("absent") is None


def test_capacity_is_min_of_count_and_byte_bounds(fake_registry):
    assert fake_registry(max_sessions=8, max_total_bytes=None).capacity == 8
    assert fake_registry(max_sessions=None, max_total_bytes=None).capacity is None
    registry = fake_registry(max_sessions=8, max_total_bytes=100, min_session_bytes=30)
    assert registry.capacity == 3  # the pool splits three ways before thinning out
    registry = fake_registry(max_sessions=2, max_total_bytes=100, min_session_bytes=30)
    assert registry.capacity == 2


def test_eviction_picks_longest_idle_not_insertion_order(fake_registry, tiny_splits):
    registry = fake_registry(max_sessions=2, max_total_bytes=None)
    a = registry.get_or_create("a", SPEC, tiny_splits.train, tiny_splits.holdout)
    b = registry.get_or_create("b", SPEC, tiny_splits.train, tiny_splits.holdout)
    # "a" was inserted first but served most recently, so "b" is idler.
    b._last_used_at = a.last_used_at - 10.0
    registry.get_or_create("c", SPEC, tiny_splits.train, tiny_splits.holdout)
    assert registry.keys() == ["a", "c"]
    assert registry.stats().evictions == 1


def test_newly_admitted_session_is_never_the_victim(fake_registry, tiny_splits):
    registry = fake_registry(max_sessions=1, max_total_bytes=None)
    registry.get_or_create("a", SPEC, tiny_splits.train, tiny_splits.holdout)
    registry.get_or_create("b", SPEC, tiny_splits.train, tiny_splits.holdout)
    assert registry.keys() == ["b"]


def test_rebalance_shares_pool_evenly_at_zero_traffic(fake_registry, tiny_splits):
    # The pool is always split evenly: pool // N per member.
    registry = fake_registry(max_sessions=4, max_total_bytes=1200)
    a = registry.get_or_create("a", SPEC, tiny_splits.train, tiny_splits.holdout)
    assert a.budget == 1200
    b = registry.get_or_create("b", SPEC, tiny_splits.train, tiny_splits.holdout)
    c = registry.get_or_create("c", SPEC, tiny_splits.train, tiny_splits.holdout)
    assert a.budget == b.budget == c.budget == 400
    assert registry.session_budget_bytes() == 400
    # Invalidation frees the victim's share for the survivors.
    assert registry.invalidate("b")
    assert a.budget == c.budget == 600
    assert not registry.invalidate("b")
    stats = registry.stats()
    assert stats.invalidations == 1
    assert stats.session_budget_bytes == 600


def test_byte_pool_bounds_fleet_size(fake_registry, tiny_splits):
    registry = fake_registry(max_sessions=None, max_total_bytes=100, min_session_bytes=40)
    for key in ("a", "b", "c"):
        registry.get_or_create(key, SPEC, tiny_splits.train, tiny_splits.holdout)
    # capacity = 100 // 40 = 2: admitting "c" evicted the idlest member.
    assert len(registry) == 2
    assert registry.stats().evictions == 1


def test_evict_idle(fake_registry, tiny_splits):
    registry = fake_registry(max_sessions=8, max_total_bytes=None)
    a = registry.get_or_create("a", SPEC, tiny_splits.train, tiny_splits.holdout)
    registry.get_or_create("b", SPEC, tiny_splits.train, tiny_splits.holdout)
    a._last_used_at -= 100.0
    assert registry.evict_idle(50.0) == 1
    assert registry.keys() == ["b"]
    assert registry.evict_idle(50.0) == 0


def test_clear_counts_invalidations(fake_registry, tiny_splits):
    registry = fake_registry()
    registry.get_or_create("a", SPEC, tiny_splits.train, tiny_splits.holdout)
    registry.get_or_create("b", SPEC, tiny_splits.train, tiny_splits.holdout)
    registry.clear()
    stats = registry.stats()
    assert len(registry) == 0
    assert stats.invalidations == 2
    assert stats.evictions == 0


def test_warm_scan_never_holds_the_registry_lock(fake_registry, tiny_splits, tmp_path):
    """A scrape's warm-directory scan never stalls the request path.

    ``WarmCacheTier.stats()`` scans its directory (one ``stat`` per
    entry); while it runs inside ``registry.stats()``, a request's
    ``registry.get`` must still return promptly.
    """
    scanning = threading.Event()
    release = threading.Event()

    class BlockingWarmTier(WarmCacheTier):
        def stats(self):
            scanning.set()
            release.wait(timeout=30)
            return super().stats()

    registry = fake_registry(warm_cache=BlockingWarmTier(tmp_path / "warm"))
    session = registry.get_or_create("k", SPEC, tiny_splits.train, tiny_splits.holdout)
    scraper = threading.Thread(target=registry.stats)
    scraper.start()
    try:
        assert scanning.wait(timeout=10)
        served = []
        getter = threading.Thread(target=lambda: served.append(registry.get("k")))
        getter.start()
        getter.join(timeout=2.0)
        assert not getter.is_alive(), "registry.get blocked behind the warm scan"
        assert served == [session]
    finally:
        release.set()
        scraper.join(timeout=30)
        registry.warm_cache.close()
    assert not scraper.is_alive()


def test_constructor_validation():
    with pytest.raises(BlinkMLError):
        SessionRegistry(max_sessions=0)
    with pytest.raises(BlinkMLError):
        SessionRegistry(max_total_bytes=0)
    with pytest.raises(BlinkMLError):
        SessionRegistry(min_session_bytes=0)
    with pytest.raises(BlinkMLError):
        SessionRegistry(max_total_bytes=10, min_session_bytes=100)


def test_construction_error_propagates_and_is_retried(tiny_splits):
    attempts = []

    def flaky_factory(spec, train, holdout, **kwargs):
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("boom")
        return FakeSession(spec, train, holdout, **kwargs)

    registry = SessionRegistry(
        session_factory=flaky_factory, min_session_bytes=1, max_total_bytes=None
    )
    with pytest.raises(RuntimeError):
        registry.get_or_create("k", SPEC, tiny_splits.train, tiny_splits.holdout)
    assert len(registry) == 0
    session = registry.get_or_create("k", SPEC, tiny_splits.train, tiny_splits.holdout)
    assert isinstance(session, FakeSession)
    assert len(attempts) == 2


def test_single_flight_construction_under_contention(tiny_splits):
    constructions = []
    barrier_released = threading.Event()

    def slow_factory(spec, train, holdout, **kwargs):
        constructions.append(threading.get_ident())
        barrier_released.wait(5.0)
        return FakeSession(spec, train, holdout, **kwargs)

    registry = SessionRegistry(
        session_factory=slow_factory, min_session_bytes=1, max_total_bytes=None
    )
    with ThreadPoolExecutor(8) as pool:
        futures = [
            pool.submit(
                registry.get_or_create,
                "k",
                SPEC,
                tiny_splits.train,
                tiny_splits.holdout,
            )
            for _ in range(8)
        ]
        # Give the followers time to queue behind the leader, then release.
        time.sleep(0.1)
        barrier_released.set()
        sessions = [future.result() for future in futures]
    assert len(constructions) == 1
    assert all(session is sessions[0] for session in sessions)
    stats = registry.stats()
    assert stats.misses == 1
    assert stats.hits == 7


# ----------------------------------------------------------------------
# Real-session fleets
# ----------------------------------------------------------------------
def test_fingerprint_mismatched_dataset_always_misses(tiny_splits):
    # warm_cache=False: this test asserts the *cost* of invalidation (the
    # fresh session recomputes).  A live warm tier would legitimately serve
    # the recompute from disk — holdout and θ0 are unchanged — and flip
    # from_cache to True.
    registry = SessionRegistry(max_sessions=4, max_total_bytes=None, warm_cache=False)
    original = registry.get_or_create(
        "pair", SPEC, tiny_splits.train, tiny_splits.holdout, **session_kwargs()
    )
    original.answer(ApproximationContract.from_accuracy(0.85))
    assert original.cache_stats()["diff"].misses == 1

    # The training data changes under the same key: one flipped value.
    changed_X = tiny_splits.train.X.copy()
    changed_X[0, 0] += 1.0
    changed_train = Dataset(changed_X, tiny_splits.train.y)
    fresh = registry.get_or_create(
        "pair", SPEC, changed_train, tiny_splits.holdout, **session_kwargs()
    )
    assert fresh is not original
    assert registry.stats().fingerprint_invalidations == 1
    # The fresh session starts cold: nothing cached against the old data
    # can be served, and the first answer recomputes its difference vector.
    assert fresh.cache_stats()["diff"].misses == 0
    answer = fresh.answer(ApproximationContract.from_accuracy(0.85))
    assert not answer.from_cache

    # Offering the changed data again is a plain hit (fingerprint matches).
    assert (
        registry.get_or_create(
            "pair", SPEC, changed_train, tiny_splits.holdout, **session_kwargs()
        )
        is fresh
    )
    # An equal-content dataset matches even as a different object.
    equal_train = Dataset(changed_X.copy(), np.asarray(tiny_splits.train.y).copy())
    assert (
        registry.get_or_create(
            "pair", SPEC, equal_train, tiny_splits.holdout, **session_kwargs()
        )
        is fresh
    )


def test_fleet_stays_within_global_byte_budget(tiny_splits):
    budget = 64 * 1024
    registry = SessionRegistry(
        max_sessions=3, max_total_bytes=budget, min_session_bytes=1024
    )
    pairs = {f"pair-{seed}": small_splits(seed=seed) for seed in (5, 6, 7)}
    theta_requests = [(n, delta) for n in (200, 300, 450, 600, 800) for delta in (0.05, 0.2)]
    peak = 0
    for key, splits in pairs.items():
        session = registry.get_or_create(
            key, SPEC, splits.train, splits.holdout, **session_kwargs()
        )
        for n, delta in theta_requests:
            session.accuracy_estimate(session.initial_model.theta, n, delta)
            current = registry.stats().bytes
            peak = max(peak, current)
            assert current <= budget
    assert peak > 0
    # Each member's cache caps sum to at most the one even share, which
    # respects min_session_bytes, and the shares never exceed the pool.
    share = registry.session_budget_bytes()
    for key in registry.keys():
        caps = [stats.max_bytes for stats in registry.get(key).cache_stats().values()]
        assert sum(caps) <= share
    assert share >= registry.min_session_bytes
    assert share * len(registry) <= budget


def test_repeated_contracts_serve_from_cache_with_zero_new_evaluations(tiny_splits):
    registry = SessionRegistry(max_sessions=4, max_total_bytes=None)
    contracts = [
        ApproximationContract.from_accuracy(0.85),
        ApproximationContract.from_accuracy(0.90, delta=0.2),
    ]
    session = registry.get_or_create(
        "pair", SPEC, tiny_splits.train, tiny_splits.holdout, **session_kwargs()
    )
    for contract in contracts:
        session.answer(contract)
    misses_after_first_pass = session.cache_stats()["diff"].misses
    for _ in range(3):
        session = registry.get_or_create(
            "pair", SPEC, tiny_splits.train, tiny_splits.holdout, **session_kwargs()
        )
        for contract in contracts:
            assert session.answer(contract).from_cache
    assert session.cache_stats()["diff"].misses == misses_after_first_pass


def test_threaded_fleet_identical_to_serial(tiny_splits):
    """Hammer get_or_create/answer from a pool; answers must match serial."""
    pairs = {f"pair-{seed}": (small_splits(seed=seed), seed) for seed in (11, 12, 13)}
    contracts = [
        ApproximationContract.from_accuracy(0.85),
        ApproximationContract.from_accuracy(0.90, delta=0.2),
        ApproximationContract.from_accuracy(0.95, delta=0.01),
    ]
    workload = [(key, contract) for key in pairs for contract in contracts] * 4

    def serve(registry, key, contract):
        splits, seed = pairs[key]
        session = registry.get_or_create(
            key, SPEC, splits.train, splits.holdout, **session_kwargs(seed)
        )
        return session.answer(contract).estimate.epsilon

    def run(n_threads):
        registry = SessionRegistry(
            max_sessions=4, max_total_bytes=256 * 1024, min_session_bytes=1024
        )
        if n_threads == 1:
            served = [serve(registry, key, contract) for key, contract in workload]
        else:
            with ThreadPoolExecutor(n_threads) as pool:
                served = list(
                    pool.map(lambda request: serve(registry, *request), workload)
                )
        return served, registry

    serial, _ = run(1)
    threaded, registry = run(8)
    assert serial == threaded  # bitwise-identical epsilons
    stats = registry.stats()
    # Single-flight: one construction per distinct key, everything else hits.
    assert stats.misses == len(pairs)
    assert stats.hits == len(workload) - len(pairs)
    assert stats.bytes <= 256 * 1024


def test_threaded_invalidate_and_eviction_churn(tiny_splits):
    """Concurrent get_or_create + invalidate never deadlocks or corrupts."""
    registry = SessionRegistry(
        max_sessions=2,
        max_total_bytes=64 * 1024,
        min_session_bytes=1024,
        session_factory=FakeSession,
    )
    keys = ["a", "b", "c", "d"]
    errors: list[BaseException] = []

    def churn(worker: int) -> None:
        try:
            for i in range(25):
                key = keys[(worker + i) % len(keys)]
                registry.get_or_create(
                    key, SPEC, tiny_splits.train, tiny_splits.holdout
                )
                if i % 7 == 0:
                    registry.invalidate(key)
                registry.stats()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=churn, args=(w,)) for w in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
    assert not errors
    assert len(registry) <= 2
    stats = registry.stats()
    assert stats.sessions == len(stats.per_session)


def test_stats_rollup_aggregates_member_caches(tiny_splits):
    registry = SessionRegistry(max_sessions=4, max_total_bytes=None)
    for seed in (21, 22):
        splits = small_splits(seed=seed)
        session = registry.get_or_create(
            f"pair-{seed}", SPEC, splits.train, splits.holdout, **session_kwargs(seed)
        )
        session.answer(ApproximationContract.from_accuracy(0.9))
        session.answer(ApproximationContract.from_accuracy(0.9))
    totals = registry.stats().cache_totals()
    members = [registry.get(key) for key in registry.keys()]
    for name in ("diff", "model", "size"):
        assert totals[name].hits == sum(
            member.cache_stats()[name].hits for member in members
        )
        assert totals[name].misses == sum(
            member.cache_stats()[name].misses for member in members
        )
    assert totals["diff"].bytes == registry.stats().bytes - (
        totals["model"].bytes + totals["size"].bytes
    )
