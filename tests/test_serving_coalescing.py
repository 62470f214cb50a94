"""Tests for the request-coalescing serving tier (repro.serving).

Batcher mechanics (windows, dedup, backpressure, lifecycle) run against a
stub session so they are fast and fully deterministic; the coalescing
*guarantee* — a batch of concurrent mixed contracts completes in strictly
fewer streamed passes than serial execution with bitwise-identical
per-caller results, and exact ``passes_saved`` accounting — is exercised
against real :class:`EstimationSession`\\ s on a small synthetic workload.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.caching import CacheStats
from repro.core.contract import ApproximationContract
from repro.core.registry import SessionRegistry
from repro.core.sample_size import SampleSizeEstimator
from repro.core.session import CoalescedTrainOutcome, EstimationSession
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import higgs_like
from repro.evaluation.streaming import streaming_pass_count
from repro.exceptions import BlinkMLError, ServingError, ServingOverloadError
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.serving import BatcherStats, CoalescingService, ContractBatcher

SPEC = LogisticRegressionSpec(regularization=1e-3)

#: B = 8 mixed contracts: five distinct (ε, δ) pairs plus three duplicates.
CONTRACTS = [
    ApproximationContract(epsilon=0.010, delta=0.05),
    ApproximationContract(epsilon=0.012, delta=0.05),
    ApproximationContract(epsilon=0.010, delta=0.05),
    ApproximationContract(epsilon=0.015, delta=0.05),
    ApproximationContract(epsilon=0.012, delta=0.05),
    ApproximationContract(epsilon=0.020, delta=0.05),
    ApproximationContract(epsilon=0.010, delta=0.05),
    ApproximationContract(epsilon=0.018, delta=0.05),
]
N_DISTINCT = len({(c.epsilon, c.delta) for c in CONTRACTS})


@pytest.fixture(scope="module")
def splits():
    return train_holdout_test_split(
        higgs_like(n_rows=2_500, n_features=10, seed=13),
        SplitSpec(holdout_fraction=0.2, test_fraction=0.1),
        rng=np.random.default_rng(13),
    )


def make_session(splits, seed: int = 0) -> EstimationSession:
    return EstimationSession(
        SPEC,
        splits.train,
        splits.holdout,
        initial_sample_size=250,
        n_parameter_samples=24,
        rng=seed,
    )


@pytest.fixture(scope="module")
def serial_baseline(splits):
    """Serial reference run: per-result outputs plus measured streamed passes."""
    session = make_session(splits)
    before = streaming_pass_count()
    results = [session.train_to(contract) for contract in CONTRACTS]
    return results, streaming_pass_count() - before


def assert_bitwise_identical(serial_result, coalesced_result):
    assert coalesced_result.sample_size == serial_result.sample_size
    assert np.array_equal(coalesced_result.model.theta, serial_result.model.theta)
    assert coalesced_result.estimated_epsilon == serial_result.estimated_epsilon
    assert (
        coalesced_result.metadata["size_search_probes"]
        == serial_result.metadata["size_search_probes"]
    )


# ----------------------------------------------------------------------
# The coalescing guarantee (real sessions)
# ----------------------------------------------------------------------
class TestCoalescedIdentity:
    def test_train_to_many_identical_with_fewer_passes(self, splits, serial_baseline):
        serial_results, serial_passes = serial_baseline
        session = make_session(splits)
        before = streaming_pass_count()
        outcome = session.train_to_many(CONTRACTS)
        fused_passes = streaming_pass_count() - before
        assert isinstance(outcome, CoalescedTrainOutcome)
        assert len(outcome.results) == len(CONTRACTS)
        # Strictly fewer streamed passes than the serial run...
        assert fused_passes < serial_passes
        # ...and passes_saved is *exact*: the answer-phase passes are equal
        # on both sides (same caches), so the measured delta is entirely
        # the fused search's saving.
        assert serial_passes - fused_passes == outcome.passes_saved
        assert outcome.passes_saved > 0
        for serial_result, fused_result in zip(serial_results, outcome.results):
            assert_bitwise_identical(serial_result, fused_result)

    def test_answer_many_matches_serial_answers(self, splits):
        session = make_session(splits)
        fused = session.answer_many(CONTRACTS)
        reference = make_session(splits)
        for contract, answer in zip(CONTRACTS, fused):
            lone = reference.answer(contract)
            assert answer.satisfied == lone.satisfied
            assert answer.estimate.epsilon == lone.estimate.epsilon

    def test_threads_through_one_batcher_identical_to_serial(
        self, splits, serial_baseline
    ):
        serial_results, serial_passes = serial_baseline
        session = make_session(splits)
        # max_batch = B and a generous window guarantee a single dispatch:
        # the window closes early the moment the batch fills.
        batcher = ContractBatcher(
            session, window_ms=5_000, max_batch=len(CONTRACTS), name="identity"
        )
        barrier = threading.Barrier(len(CONTRACTS))
        results: list = [None] * len(CONTRACTS)
        errors: list = []

        def worker(index: int, contract: ApproximationContract) -> None:
            barrier.wait()
            try:
                results[index] = batcher.train_to(contract)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        before = streaming_pass_count()
        threads = [
            threading.Thread(target=worker, args=(i, c))
            for i, c in enumerate(CONTRACTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measured = streaming_pass_count() - before
        batcher.close()
        assert not errors
        for serial_result, batched_result in zip(serial_results, results):
            assert_bitwise_identical(serial_result, batched_result)
        stats = batcher.stats()
        assert stats.batches == 1
        assert stats.requests == len(CONTRACTS)
        assert stats.window_occupancy == 1.0
        assert stats.coalesced_requests == len(CONTRACTS) - N_DISTINCT
        # Exact accounting again, measured end to end through the batcher.
        assert serial_passes - measured == stats.passes_saved
        assert measured < serial_passes
        assert stats.passes_saved > 0


class TestFusedBatchFault:
    def test_exception_inside_a_fused_batch_falls_back_to_serial(
        self, splits, serial_baseline, monkeypatch
    ):
        # The first fused size search of the burst raises; every caller must
        # still get its serial-fallback result, bitwise equal to serial
        # train_to, with no hang, no None result and no stray error.
        serial_results, _ = serial_baseline
        expected = {}
        for contract, result in zip(CONTRACTS, serial_results):
            expected.setdefault(contract, result)
        distinct = list(expected)
        original = SampleSizeEstimator.estimate_many
        raised = []

        def fails_once(self, *args, **kwargs):
            if not raised:
                raised.append(len(kwargs["contracts"]))
                raise RuntimeError("injected fault inside the fused batch")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SampleSizeEstimator, "estimate_many", fails_once)
        with CoalescingService(
            SessionRegistry(),
            window_ms=5_000,
            max_batch=len(distinct),
            start_housekeeping=False,
        ) as service:
            service.batcher(
                "pair",
                SPEC,
                splits.train,
                splits.holdout,
                initial_sample_size=250,
                n_parameter_samples=24,
                rng=0,
            )

            async def burst():
                return await asyncio.gather(
                    *[
                        service.train_to("pair", contract, timeout=120)
                        for contract in distinct
                    ],
                    return_exceptions=True,
                )

            results = asyncio.run(burst())
            stats = service.batching_stats()
        assert raised == [len(distinct)]  # one fused search held them all
        assert stats.batches == 1
        for contract, result in zip(distinct, results):
            assert not isinstance(result, BaseException), result
            assert result is not None
            assert_bitwise_identical(expected[contract], result)


# ----------------------------------------------------------------------
# Batcher mechanics (stub session)
# ----------------------------------------------------------------------
class StubSession:
    """Deterministic session facade for exercising batcher plumbing.

    ``cached`` lists the contracts whose size search it reports as cached
    (:meth:`size_cached`); every other train request may search.
    """

    def __init__(
        self,
        gate: threading.Event | None = None,
        cached: tuple[ApproximationContract, ...] = (),
    ):
        self.gate = gate
        self.cached = set(cached)
        self.executing = threading.Event()
        self.calls: list[tuple] = []

    def size_cached(self, contract):
        return contract in self.cached

    def _wait(self):
        self.executing.set()
        if self.gate is not None:
            self.gate.wait()

    def answer_many(self, contracts):
        self._wait()
        self.calls.append(("answer_many", tuple(contracts)))
        return [("answer", contract) for contract in contracts]

    def train_to_many(self, contracts, *, recompute_at_theta_n=False):
        self._wait()
        self.calls.append(("train_to_many", tuple(contracts), recompute_at_theta_n))
        return CoalescedTrainOutcome(
            results=tuple(
                ("train", contract, recompute_at_theta_n) for contract in contracts
            ),
            fused_search_passes=1,
            serial_search_passes=len(contracts),
        )

    def answer(self, contract):
        return ("answer", contract)

    def train_to(self, contract, *, recompute_at_theta_n=False):
        return ("train", contract, recompute_at_theta_n)


C1 = ApproximationContract(epsilon=0.05, delta=0.05)
C2 = ApproximationContract(epsilon=0.07, delta=0.05)
C3 = ApproximationContract(epsilon=0.08, delta=0.05)
HELD = ApproximationContract(epsilon=0.09, delta=0.05)


def hold_dispatcher(batcher, session):
    """Occupy the dispatcher with a gated answer until ``session.gate`` opens.

    Requests submitted meanwhile queue behind it and dispatch together once
    the gate opens, so a test's batch forms deterministically rather than
    by window timing.  Returns the held request's future.
    """
    held = batcher.submit("answer", HELD)
    assert session.executing.wait(5)
    return held


def wait_for_queue(batcher, depth):
    deadline = time.monotonic() + 5
    while len(batcher._queue) < depth:
        assert time.monotonic() < deadline
        time.sleep(0.002)


def involved(session):
    """Every contract a stub session was asked to execute."""
    return {contract for call in session.calls for contract in call[1]}


class TestContractBatcherMechanics:
    def test_parameter_validation(self):
        with pytest.raises(BlinkMLError):
            ContractBatcher(StubSession(), window_ms=-1)
        with pytest.raises(BlinkMLError):
            ContractBatcher(StubSession(), max_batch=0)
        with pytest.raises(BlinkMLError):
            ContractBatcher(StubSession(), max_queue=0)

    def test_mixed_batch_routes_and_demultiplexes(self):
        gate = threading.Event()
        session = StubSession(gate=gate)
        with ContractBatcher(session, window_ms=100, max_batch=4) as batcher:
            held = hold_dispatcher(batcher, session)
            outputs = [None] * 4
            specs = [("answer", C1), ("train", C1), ("answer", C2), ("train", C2)]

            def worker(index):
                kind, contract = specs[index]
                if kind == "answer":
                    outputs[index] = batcher.answer(contract)
                else:
                    outputs[index] = batcher.train_to(contract)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            wait_for_queue(batcher, 4)
            gate.set()
            for thread in threads:
                thread.join()
            assert held.result(5) == ("answer", HELD)
            assert outputs[0] == ("answer", C1)
            assert outputs[1] == ("train", C1, False)
            assert outputs[2] == ("answer", C2)
            assert outputs[3] == ("train", C2, False)
            stats = batcher.stats()
            assert stats.batches == 2  # the held answer, then all four at once
            assert (stats.answer_requests, stats.train_requests) == (3, 2)
            assert (stats.fused_passes, stats.serial_passes) == (1, 2)
            fused = [(call[0], set(call[1])) for call in session.calls[1:]]
            assert fused == [("answer_many", {C1, C2}), ("train_to_many", {C1, C2})]

    def test_recompute_flag_fuses_per_flag_value(self):
        session = StubSession()
        with ContractBatcher(session, window_ms=100, max_batch=2) as batcher:
            outputs = [None, None]

            def worker(index, recompute):
                outputs[index] = batcher.train_to(
                    C1, recompute_at_theta_n=recompute
                )

            threads = [
                threading.Thread(target=worker, args=(0, False)),
                threading.Thread(target=worker, args=(1, True)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert outputs[0] == ("train", C1, False)
            assert outputs[1] == ("train", C1, True)
            fused_calls = [c for c in session.calls if c[0] == "train_to_many"]
            assert sorted(call[2] for call in fused_calls) == [False, True]

    def test_load_shed_at_max_queue(self):
        gate = threading.Event()
        session = StubSession(gate=gate)
        batcher = ContractBatcher(session, window_ms=0, max_batch=1, max_queue=2)
        try:
            first = threading.Thread(target=lambda: batcher.answer(C1))
            first.start()
            assert session.executing.wait(5)  # request 1 popped, executing
            waiters = [
                threading.Thread(target=lambda: batcher.answer(C1))
                for _ in range(2)
            ]
            for thread in waiters:
                thread.start()
            deadline = time.monotonic() + 5
            while len(batcher._queue) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            with pytest.raises(ServingOverloadError):
                batcher.answer(C2)
            assert batcher.stats().load_shed == 1
        finally:
            gate.set()
            batcher.close()
        assert batcher.stats().requests == 3  # the shed request never ran

    def test_timeout_raises_serving_error(self):
        gate = threading.Event()
        batcher = ContractBatcher(StubSession(gate=gate), window_ms=0)
        try:
            with pytest.raises(ServingError, match="timed out"):
                batcher.answer(C1, timeout=0.05)
        finally:
            gate.set()
            batcher.close()

    def test_close_rejects_new_serves_queued(self):
        session = StubSession()
        # A train request that may search holds the window open: only
        # close() can end it before the minute is up.
        batcher = ContractBatcher(session, window_ms=60_000, max_batch=8)
        result_box = []
        thread = threading.Thread(
            target=lambda: result_box.append(batcher.train_to(C1))
        )
        started = time.monotonic()
        thread.start()
        wait_for_queue(batcher, 1)
        time.sleep(0.02)  # let the dispatcher enter the window
        batcher.close()  # cuts the window short, drains, joins
        thread.join()
        assert time.monotonic() - started < 5
        assert result_box == [("train", C1, False)]
        assert batcher.closed
        with pytest.raises(ServingError, match="closed"):
            batcher.answer(C2)
        batcher.close()  # idempotent

    def test_flush_waits_for_inflight(self):
        gate = threading.Event()
        session = StubSession(gate=gate)
        batcher = ContractBatcher(session, window_ms=0)
        thread = threading.Thread(target=lambda: batcher.answer(C1))
        thread.start()
        assert session.executing.wait(5)
        flushed = threading.Event()

        def flusher():
            batcher.flush()
            flushed.set()

        threading.Thread(target=flusher).start()
        assert not flushed.wait(0.1)  # still blocked on the in-flight batch
        gate.set()
        assert flushed.wait(5)
        thread.join()
        batcher.close()

    def test_serial_fallback_isolates_poisoned_request(self):
        class PoisonedSession(StubSession):
            def train_to_many(self, contracts, *, recompute_at_theta_n=False):
                raise RuntimeError("fused dispatch exploded")

            def train_to(self, contract, *, recompute_at_theta_n=False):
                if contract == C2:
                    raise KeyError("bad contract")
                return ("train", contract, recompute_at_theta_n)

        gate = threading.Event()
        session = PoisonedSession(gate=gate)
        batcher = ContractBatcher(session, window_ms=100, max_batch=2)
        held = hold_dispatcher(batcher, session)
        outcomes: dict[str, object] = {}

        def good():
            outcomes["good"] = batcher.train_to(C1)

        def bad():
            try:
                batcher.train_to(C2)
            except KeyError as exc:
                outcomes["bad"] = exc

        threads = [threading.Thread(target=good), threading.Thread(target=bad)]
        for thread in threads:
            thread.start()
        wait_for_queue(batcher, 2)
        gate.set()
        for thread in threads:
            thread.join()
        batcher.close()
        assert held.result(5) == ("answer", HELD)
        assert batcher.stats().batches == 2  # the two trains shared a batch
        # The poisoned member fails alone; its window-mate still succeeds.
        assert outcomes["good"] == ("train", C1, False)
        assert isinstance(outcomes["bad"], KeyError)

    def test_requests_with_no_search_skip_the_window(self):
        # A 5 s window: a lone answer and a lone size-cached train dispatch
        # as soon as the dispatcher wakes, while a burst of uncached trains
        # still waits in the window and leaves as one batch.
        session = StubSession(cached=(C1,))
        with ContractBatcher(session, window_ms=5_000, max_batch=3) as batcher:
            for submit in (
                lambda: batcher.answer(C2, timeout=5),
                lambda: batcher.train_to(C1, timeout=5),
            ):
                started = time.monotonic()
                submit()
                assert time.monotonic() - started < 0.5
            barrier = threading.Barrier(3)
            outputs = {}

            def worker(contract):
                barrier.wait()
                outputs[contract] = batcher.train_to(contract, timeout=10)

            threads = [
                threading.Thread(target=worker, args=(contract,))
                for contract in (C2, C3, HELD)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
            assert outputs == {c: ("train", c, False) for c in (C2, C3, HELD)}
            assert batcher.stats().batches == 3
        assert [call[0] for call in session.calls] == [
            "answer_many", "train_to_many", "train_to_many"
        ]
        assert set(session.calls[-1][1]) == {C2, C3, HELD}

    def test_a_request_that_may_search_holds_the_window(self):
        session = StubSession()
        with ContractBatcher(session, window_ms=200, max_batch=4) as batcher:
            started = time.monotonic()
            assert batcher.train_to(C1, timeout=5) == ("train", C1, False)
            assert time.monotonic() - started >= 0.15

    def test_submit_returns_a_future_per_request(self):
        session = StubSession()
        with ContractBatcher(session, window_ms=0) as batcher:
            futures = [
                batcher.submit("answer", C1),
                batcher.submit("train", C2, recompute_at_theta_n=True),
                batcher.submit("answer", C1, recompute_at_theta_n=True),
            ]
            assert [future.result(5) for future in futures] == [
                ("answer", C1), ("train", C2, True), ("answer", C1)
            ]
            with pytest.raises(BlinkMLError, match="kind"):
                batcher.submit("refresh", C1)

    def test_timed_out_or_cancelled_queued_requests_never_execute(self):
        gate = threading.Event()
        session = StubSession(gate=gate)
        batcher = ContractBatcher(session, window_ms=0, max_batch=8, max_queue=2)
        try:
            held = hold_dispatcher(batcher, session)
            with pytest.raises(ServingError, match="timed out"):
                batcher.train_to(C2, timeout=0.05)
            cancelled = batcher.submit("train", C3)
            assert cancelled.cancel()
            # Both dropped requests gave their queue slots back.
            assert (len(batcher._queue), batcher._searching) == (0, 0)
            kept = [batcher.submit("answer", C1), batcher.submit("answer", C2)]
        finally:
            gate.set()
            batcher.close()
        assert held.result(5) == ("answer", HELD)
        assert [future.result(5) for future in kept] == [("answer", C1), ("answer", C2)]
        assert involved(session) == {HELD, C1, C2}
        assert batcher.stats().requests == 3  # neither dropped request ran
        assert batcher.stats().load_shed == 0

    def test_concurrent_submitters_each_get_their_own_result(self):
        # More submitters than cores, switching threads as often as the
        # interpreter allows: every request completes once with its own
        # result, and the may-search count drains back to zero (a lost
        # update would leave later windows held open).
        contracts = [C1, C2, C3, HELD]
        session = StubSession(cached=(C1, C3))
        batcher = ContractBatcher(session, window_ms=0.5, max_batch=4)
        errors: list = []

        def worker(index):
            try:
                for step in range(40):
                    contract = contracts[(index + step) % len(contracts)]
                    if step % 3 == 0:
                        assert batcher.answer(contract, timeout=10) == (
                            "answer", contract
                        )
                    else:
                        recompute = step % 2 == 0
                        assert batcher.train_to(
                            contract, recompute_at_theta_n=recompute, timeout=10
                        ) == ("train", contract, recompute)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
        assert not errors
        assert batcher.stats().requests == 12 * 40
        assert batcher._searching == 0

    def test_served_requests_leave_no_cycle_holding_the_session(self):
        # With the cyclic collector off, a closed batcher and its session
        # are freed by reference counting once the callers drop them: a
        # fleet that replaces its sessions does not hold the old ones.
        collecting = gc.isenabled()
        gc.disable()
        try:
            session = StubSession()
            alive = weakref.ref(session)
            batcher = ContractBatcher(session, window_ms=0)
            futures = [batcher.submit("train", C1), batcher.submit("answer", C2)]
            assert [future.result(5) for future in futures] == [
                ("train", C1, False), ("answer", C2)
            ]
            batcher.close()
            del batcher, session, futures
            assert alive() is None
        finally:
            if collecting:
                gc.enable()

    def test_dispatch_without_a_result_fails_the_caller(self):
        class ShortSession(StubSession):
            def answer_many(self, contracts):
                return []  # loses every result

        with ContractBatcher(ShortSession(), window_ms=0) as batcher:
            with pytest.raises(ServingError, match="without completing"):
                batcher.answer(C1, timeout=5)

    def test_stats_merge(self):
        a = BatcherStats(
            batches=2, requests=6, coalesced_requests=1, fused_passes=3,
            serial_passes=9, window_slots=8, max_queue_depth=4,
            queue_wait_seconds=0.5, max_queue_wait_seconds=0.3,
        )
        b = BatcherStats(
            batches=1, requests=2, load_shed=1, window_slots=4,
            max_queue_depth=2, queue_wait_seconds=0.1,
            max_queue_wait_seconds=0.4,
        )
        merged = a.merge(b)
        assert merged.batches == 3
        assert merged.requests == 8
        assert merged.passes_saved == 6
        assert merged.load_shed == 1
        assert merged.max_queue_depth == 4
        assert merged.max_queue_wait_seconds == 0.4
        assert merged.window_occupancy == pytest.approx(8 / 12)
        assert merged.queue_wait_seconds == pytest.approx(0.6)
        assert BatcherStats().window_occupancy == 0.0


# ----------------------------------------------------------------------
# Registry integration: a closed service releases its registry
# ----------------------------------------------------------------------
class FakeSession(StubSession):
    """A stub session with just enough surface to be a registry member."""

    def __init__(self, spec, train, holdout, **kwargs):
        super().__init__()
        self.budget_history: list[int] = []
        self._last_used_at = time.monotonic()

    def resize_cache_budget(self, total_bytes: int) -> None:
        self.budget_history.append(int(total_bytes))

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


class FakeData:
    n_rows = 10

    def content_digest(self) -> str:
        return "digest"


class TestRegistryServingIntegration:
    def test_closed_service_is_not_kept_alive_by_its_registry(self):
        registry = SessionRegistry(session_factory=FakeSession, min_session_bytes=1)
        service = CoalescingService(registry)
        service_ref = weakref.ref(service)
        service.close()
        del service
        gc.collect()
        assert service_ref() is None
        # The registry outlives its front-end and stays usable.
        registry.get_or_create("k", None, FakeData(), FakeData())
        assert registry.stats().sessions == 1


# ----------------------------------------------------------------------
# CoalescingService (asyncio front-end, housekeeping, lock order)
# ----------------------------------------------------------------------
class FakeRegistry:
    """Scriptable registry facade for service-level unit tests."""

    def __init__(self):
        self.sessions: dict[object, object] = {}
        self.evict_calls: list[float] = []

    def get_or_create(self, key, spec, train, holdout, **kwargs):
        return self.sessions.setdefault(key, StubSession())

    def get(self, key):
        return self.sessions.get(key)

    def evict_idle(self, idle_seconds):
        self.evict_calls.append(idle_seconds)
        return 0


class TestCoalescingService:
    def test_async_round_trip_coalesces(self, splits, serial_baseline):
        serial_results, _ = serial_baseline
        registry = SessionRegistry()
        with CoalescingService(
            registry,
            window_ms=50,
            max_batch=len(CONTRACTS),
            start_housekeeping=False,
        ) as service:

            async def drive():
                return await asyncio.gather(
                    *[
                        service.train_to(
                            "pair",
                            contract,
                            spec=SPEC,
                            train=splits.train,
                            holdout=splits.holdout,
                            initial_sample_size=250,
                            n_parameter_samples=24,
                            rng=0,
                        )
                        for contract in CONTRACTS
                    ]
                )

            results = asyncio.run(drive())
            for serial_result, served in zip(serial_results, results):
                assert_bitwise_identical(serial_result, served)
            stats = service.batching_stats()
            assert stats.requests == len(CONTRACTS)
            assert stats.coalesced_requests > 0 or stats.batches > 1

    def test_async_timeout_raises_serving_error(self):
        gate = threading.Event()
        registry = FakeRegistry()
        registry.sessions["k"] = session = StubSession(gate=gate)
        service = CoalescingService(registry, window_ms=0, start_housekeeping=False)
        try:
            with pytest.raises(ServingError, match="timed out"):
                asyncio.run(service.train_to("k", C1, timeout=0.05))
            with pytest.raises(ServingError, match="timed out"):
                service.train_to_sync("k", C2, timeout=0.05)
        finally:
            gate.set()
            service.close()
        # The first request was executing when it timed out; the second
        # was still queued behind it and never ran.
        assert involved(session) == {C1}

    def test_async_cancelled_queued_request_never_executes(self):
        gate = threading.Event()
        registry = FakeRegistry()
        registry.sessions["k"] = session = StubSession(gate=gate)
        service = CoalescingService(registry, window_ms=0, start_housekeeping=False)
        try:
            held = hold_dispatcher(service.batcher("k"), session)

            async def drive():
                timed_out = asyncio.ensure_future(
                    service.train_to("k", C2, timeout=0.05)
                )
                cancelled = asyncio.ensure_future(service.answer("k", C3))
                await asyncio.sleep(0.01)  # both submitted and queued
                cancelled.cancel()
                outcomes = await asyncio.gather(
                    timed_out, cancelled, return_exceptions=True
                )
                gate.set()
                kept = await service.answer("k", C1, timeout=5)
                return outcomes, kept

            (timed_out, cancelled), kept = asyncio.run(drive())
        finally:
            gate.set()
            service.close()
        assert isinstance(timed_out, ServingError)
        assert isinstance(cancelled, asyncio.CancelledError)
        assert held.result(5) == ("answer", HELD)
        assert kept == ("answer", C1)
        assert involved(session) == {HELD, C1}

    def test_async_resolution_constructs_sessions_off_the_loop(self):
        built_on = []

        def factory(spec, train, holdout, **kwargs):
            built_on.append(threading.current_thread())
            return FakeSession(spec, train, holdout, **kwargs)

        registry = SessionRegistry(session_factory=factory, min_session_bytes=1)
        data = FakeData()
        with CoalescingService(
            registry, window_ms=0, start_housekeeping=False
        ) as service:

            async def drive():
                answer = await service.answer(
                    "k", C1, spec=SPEC, train=data, holdout=data, timeout=5
                )
                return threading.current_thread(), answer

            loop_thread, answer = asyncio.run(drive())
        assert answer == ("answer", C1)
        assert len(built_on) == 1 and built_on[0] is not loop_thread

    def test_requires_spec_or_live_session(self):
        service = CoalescingService(FakeRegistry(), start_housekeeping=False)
        with pytest.raises(ServingError, match="no live session"):
            service.answer_sync("absent", C1)
        service.close()

    def test_housekeeping_rebalances_evicts_and_drops_stale(self):
        registry = FakeRegistry()
        registry.sessions["k"] = StubSession()
        service = CoalescingService(
            registry,
            start_housekeeping=False,
            idle_evict_seconds=60.0,
        )
        batcher = service.batcher("k", spec=SPEC, train=None, holdout=None)
        batcher.answer(C1)
        report = service.housekeep_once()
        assert registry.evict_calls == [60.0]
        assert report["batchers_dropped"] == 0
        assert service.batcher("k") is batcher
        # Replace the session under the key: housekeeping must drop the
        # stale batcher but keep its counters in the aggregate.
        registry.sessions["k"] = StubSession()
        report = service.housekeep_once()
        assert report["batchers_dropped"] == 1
        fresh = service.batcher("k")
        assert fresh is not batcher
        assert service.batching_stats().requests == 1  # retired history kept
        service.close()

    def test_background_housekeeping_thread_runs(self):
        registry = FakeRegistry()
        service = CoalescingService(registry, housekeeping_seconds=0.02)
        deadline = time.monotonic() + 5
        while not registry.evict_calls:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        service.close()

    def test_submit_racing_batcher_retirement_cannot_deadlock(self):
        # Retiring a batcher (_retire_locked, _drop_stale_batchers, close())
        # holds the service lock and then takes the batcher's condition via
        # batcher.stats(), so a submission must never wait on the service
        # lock while holding that condition.  Hold the service lock across
        # a live submission to a bounded-pool fleet: the condition must
        # stay acquirable, as a concurrent retirement needs it.
        registry = SessionRegistry(
            session_factory=FakeSession, min_session_bytes=1, max_total_bytes=1_000
        )
        data = FakeData()
        service = CoalescingService(registry, window_ms=0, start_housekeeping=False)
        batcher = service.batcher("k", spec=SPEC, train=data, holdout=data)
        submitter = threading.Thread(target=lambda: batcher.answer(C1), daemon=True)
        try:
            with service._lock:
                submitter.start()
                batcher.session.executing.wait(1)
                acquired = batcher._cond.acquire(timeout=1)
                if acquired:
                    batcher._cond.release()
            assert acquired, "submit blocked on the service lock under the batcher lock"
        finally:
            submitter.join(5)
            service.close()

    def test_close_is_idempotent_and_final(self):
        service = CoalescingService(FakeRegistry(), start_housekeeping=False)
        service.close()
        service.close()
        with pytest.raises(ServingError, match="closed"):
            service.batcher("k", spec=SPEC, train=None, holdout=None)
