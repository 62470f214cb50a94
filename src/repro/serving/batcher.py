"""Per-session request coalescing: one dispatch serves a window of callers.

The economics this tier exists for: a session's dominant serving cost is
the streamed holdout pass behind each sample-size-search round, and
concurrent *distinct* (ε, δ) contracts each pay their own rounds even
though the candidate evaluations could share every pass.  A
:class:`ContractBatcher` sits in front of one
:class:`~repro.core.session.EstimationSession` and

* collects concurrent ``answer()`` / ``train_to()`` submissions, holding
  a short batching window (``window_ms``, capped at ``max_batch``
  requests) open only while a queued request may run a size search — a
  ``train`` request whose (ε, δ) was not yet in the session's size cache
  when it was submitted.  Answers and size-cached repeats have no search
  to share, so they dispatch as soon as the dispatcher wakes;
* dedupes identical requests — same kind, same (ε, δ), same flags — into
  single-flight followers (counted in ``coalesced_requests``; the
  session's own single-flight caches guarantee followers get the leader's
  bitwise-identical result);
* dispatches the distinct survivors as *one* fused evaluation:
  :meth:`~repro.core.session.EstimationSession.answer_many` for answers
  (one shared difference vector) and
  :meth:`~repro.core.session.EstimationSession.train_to_many` for training
  requests (one lockstep fused size search — every active search's
  candidates ride one streamed union pass per round);
* completes each request's :class:`concurrent.futures.Future` with its
  own result, bitwise identical to what each serial call would have
  returned (batch composition never changes a result, so neither does
  the window rule).

Every request completes through the future :meth:`ContractBatcher.submit`
returns: the blocking :meth:`~ContractBatcher.answer` /
:meth:`~ContractBatcher.train_to` wait on it, and the asyncio service
awaits it on the event loop.  A future cancelled while its request is
still queued (a timed-out or cancelled caller) takes the request out of
the queue, freeing its ``max_queue`` slot and any window it held open,
so the request never reaches the session.

Backpressure is a bounded queue: a submission finding ``max_queue``
requests already waiting is load-shed immediately with
:class:`~repro.exceptions.ServingOverloadError` instead of queueing
unboundedly.

If a fused dispatch raises, the batcher falls back to serial per-request
execution so one poisoned contract (e.g. a validation error) fails only
its own caller, not everyone who shared the window.

Thread model: submissions may come from any thread, the event loop's
included (a submission takes the session's size-cache lock and the
batcher condition, each briefly, and never waits for a dispatch); a
single daemon dispatcher thread per batcher owns the batching loop,
started lazily on first submission and joined by
:meth:`ContractBatcher.close`.  All counters are guarded by the batcher
condition variable and exposed as an immutable :class:`BatcherStats`
snapshot, which the service aggregates (``service.batching_stats()``).
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any

from repro.config import (
    DEFAULT_COALESCE_MAX_BATCH,
    DEFAULT_COALESCE_MAX_QUEUE,
    DEFAULT_COALESCE_WINDOW_MS,
)
from repro.core.contract import ApproximationContract
from repro.core.result import ApproximateTrainingResult
from repro.core.session import EstimationSession, SessionAnswer
from repro.exceptions import BlinkMLError, ServingError, ServingOverloadError
from repro.obs import get_metrics, get_tracer

# Queue-wait *distribution* (repro.obs): the cumulative totals live in
# BatcherStats (rendered as gauges in the owning service's scrape); the
# histogram adds per-request latency quantiles the totals cannot recover.
_QUEUE_WAIT_SECONDS = get_metrics().histogram(
    "repro_coalescing_queue_wait_latency_seconds",
    "Per-request time spent queued in the coalescing window before its "
    "batch dispatched.",
)


@dataclass(frozen=True)
class BatcherStats:
    """Immutable coalescing counters (per batcher, or service-aggregated).

    Attributes
    ----------
    batches:
        Dispatches executed (each served one batching window).
    requests:
        Requests dispatched through them (a request cancelled while still
        queued never dispatches and is not counted).
    coalesced_requests:
        Requests that were in-window duplicates of another request (same
        kind, contract and flags) — followers that rode a leader's
        evaluation instead of paying their own.
    answer_requests / train_requests:
        The per-kind split of ``requests``.
    fused_passes / serial_passes:
        Exact size-search round accounting summed over every fused
        ``train_to_many`` dispatch (see
        :class:`~repro.core.session.CoalescedTrainOutcome`): rounds
        actually executed versus what the same contracts would have cost
        serially.  ``passes_saved`` is their difference — exact, because
        each member search follows the identical bracket trajectory fused
        or serial.  They count rounds, not holdout passes: a round streams
        the holdout once for LR, ME and Poisson, and the PPCA and Lin
        diffs never stream (Lin's come from the holdout factor).
    load_shed:
        Submissions rejected by backpressure (queue full) with :class:`~repro.exceptions.ServingOverloadError`.
    max_queue_depth:
        High-water mark of requests waiting in the queue.
    window_slots:
        ``batches × max_batch`` — the denominator of ``window_occupancy``.
    queue_wait_seconds / max_queue_wait_seconds:
        Total and worst time requests spent queued before their dispatch
        started.
    """

    batches: int = 0
    requests: int = 0
    coalesced_requests: int = 0
    answer_requests: int = 0
    train_requests: int = 0
    fused_passes: int = 0
    serial_passes: int = 0
    load_shed: int = 0
    max_queue_depth: int = 0
    window_slots: int = 0
    queue_wait_seconds: float = 0.0
    max_queue_wait_seconds: float = 0.0

    @property
    def passes_saved(self) -> int:
        """Size-search rounds coalescing avoided (exact)."""
        return self.serial_passes - self.fused_passes

    @property
    def window_occupancy(self) -> float:
        """Mean fraction of the batch capacity each dispatch actually filled."""
        return self.requests / self.window_slots if self.window_slots else 0.0

    def merge(self, other: "BatcherStats") -> "BatcherStats":
        """Aggregate two snapshots (sums; maxima for the high-water marks)."""
        return BatcherStats(
            batches=self.batches + other.batches,
            requests=self.requests + other.requests,
            coalesced_requests=self.coalesced_requests + other.coalesced_requests,
            answer_requests=self.answer_requests + other.answer_requests,
            train_requests=self.train_requests + other.train_requests,
            fused_passes=self.fused_passes + other.fused_passes,
            serial_passes=self.serial_passes + other.serial_passes,
            load_shed=self.load_shed + other.load_shed,
            max_queue_depth=max(self.max_queue_depth, other.max_queue_depth),
            window_slots=self.window_slots + other.window_slots,
            queue_wait_seconds=self.queue_wait_seconds + other.queue_wait_seconds,
            max_queue_wait_seconds=max(
                self.max_queue_wait_seconds, other.max_queue_wait_seconds
            ),
        )


_KINDS = ("answer", "train")


class _Request:
    """One queued caller: its ask and the future its outcome lands in."""

    __slots__ = (
        "kind",
        "contract",
        "recompute",
        "may_search",
        "future",
        "enqueued_at",
    )

    def __init__(
        self,
        kind: str,
        contract: ApproximationContract,
        recompute: bool,
        may_search: bool,
    ):
        self.kind = kind
        self.contract = contract
        self.recompute = recompute
        self.may_search = may_search
        self.future: Future[Any] = Future()
        self.enqueued_at = time.monotonic()

    def dedupe_key(self) -> tuple:
        return (self.kind, self.contract, self.recompute)


class ContractBatcher:
    """Coalesces concurrent contract requests against one session.

    Parameters
    ----------
    session:
        The :class:`~repro.core.session.EstimationSession` every batch is
        dispatched against.
    window_ms:
        How long the dispatcher holds a batch open for more arrivals while
        a queued request may run a size search (0 disables the wait: each
        dispatch takes whatever is queued the moment it wakes).  A couple
        of milliseconds is far below a streamed search round, so the added
        latency is noise next to the passes it saves; requests with no
        search to share (answers, size-cached repeats) never wait it out.
    max_batch:
        Most requests one dispatch may serve; arrivals beyond it wait for
        the next window.
    max_queue:
        Backpressure bound: a submission finding this many requests
        already queued is load-shed with
        :class:`~repro.exceptions.ServingOverloadError`.
    name:
        Label used in error messages (the service passes the session key).
    """

    def __init__(
        self,
        session: EstimationSession,
        *,
        window_ms: float = DEFAULT_COALESCE_WINDOW_MS,
        max_batch: int = DEFAULT_COALESCE_MAX_BATCH,
        max_queue: int = DEFAULT_COALESCE_MAX_QUEUE,
        name: str = "session",
    ):
        if window_ms < 0:
            raise BlinkMLError(f"batcher: window_ms must be >= 0, got {window_ms}")
        if max_batch < 1:
            raise BlinkMLError(f"batcher: max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise BlinkMLError(f"batcher: max_queue must be >= 1, got {max_queue}")
        self._session = session
        self._window_seconds = float(window_ms) / 1000.0
        self._max_batch = int(max_batch)
        self._max_queue = int(max_queue)
        self._name = str(name)
        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()  # guarded-by: _cond
        # Queued requests that may run a size search: the window is held
        # open only while this is non-zero.
        self._searching = 0  # guarded-by: _cond
        self._inflight = 0  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond
        self._thread: threading.Thread | None = None  # guarded-by: _cond
        # Counters (all guarded by the condition variable).
        self._batches = 0  # guarded-by: _cond
        self._requests = 0  # guarded-by: _cond
        self._coalesced = 0  # guarded-by: _cond
        self._answer_requests = 0  # guarded-by: _cond
        self._train_requests = 0  # guarded-by: _cond
        self._fused_passes = 0  # guarded-by: _cond
        self._serial_passes = 0  # guarded-by: _cond
        self._load_shed = 0  # guarded-by: _cond
        self._max_queue_depth = 0  # guarded-by: _cond
        self._window_slots = 0  # guarded-by: _cond
        self._queue_wait_seconds = 0.0  # guarded-by: _cond
        self._max_queue_wait_seconds = 0.0  # guarded-by: _cond

    @property
    def session(self) -> EstimationSession:
        """The session this batcher dispatches against."""
        return self._session

    @property
    def max_batch(self) -> int:
        return self._max_batch

    @property
    def max_queue(self) -> int:
        return self._max_queue

    # ------------------------------------------------------------------
    # Submission surface
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        contract: ApproximationContract,
        recompute_at_theta_n: bool = False,
    ) -> Future[Any]:
        """Queue one request; returns the future its outcome lands in.

        ``kind`` is ``"answer"`` (:meth:`EstimationSession.answer`) or
        ``"train"`` (:meth:`EstimationSession.train_to`;
        ``recompute_at_theta_n`` applies to train requests only).  The
        future completes exactly once, with the session's result or its
        exception.  Cancelling it while the request is still queued frees
        its queue slot and keeps the request from ever reaching the
        session.  Raises :class:`~repro.exceptions.ServingError` once
        closed and :class:`~repro.exceptions.ServingOverloadError` when
        the queue is full.
        """
        if kind not in _KINDS:
            raise BlinkMLError(
                f"batcher: kind must be one of {_KINDS}, got {kind!r}"
            )
        recompute = kind == "train" and bool(recompute_at_theta_n)
        # Read on the submitting thread, outside the batcher lock: a train
        # request whose (ε, δ) is not yet size-cached may run a size search,
        # the one cost a window's fusion shares.
        may_search = kind == "train" and not self._session.size_cached(contract)
        request = _Request(kind, contract, recompute, may_search)
        request.future.add_done_callback(self._withdraw)
        with self._cond:
            if self._closed:
                raise ServingError(f"batcher for {self._name!r} is closed")
            depth = len(self._queue)
            if depth >= self._max_queue:
                self._load_shed += 1
                raise ServingOverloadError(
                    f"batcher for {self._name!r} shed a {kind} request "
                    f"(queue depth {depth}, bound {self._max_queue})"
                )
            self._queue.append(request)
            self._searching += may_search
            self._max_queue_depth = max(self._max_queue_depth, depth + 1)
            self._ensure_dispatcher_locked()
            self._cond.notify_all()
        return request.future

    def answer(
        self, contract: ApproximationContract, timeout: float | None = None
    ) -> SessionAnswer:
        """Coalesced :meth:`EstimationSession.answer` — blocks for the result."""
        result: SessionAnswer = self._wait(
            self.submit("answer", contract), "answer", timeout
        )
        return result

    def train_to(
        self,
        contract: ApproximationContract,
        *,
        recompute_at_theta_n: bool = False,
        timeout: float | None = None,
    ) -> ApproximateTrainingResult:
        """Coalesced :meth:`EstimationSession.train_to` — blocks for the result."""
        result: ApproximateTrainingResult = self._wait(
            self.submit("train", contract, recompute_at_theta_n), "train", timeout
        )
        return result

    def _wait(self, future: Future[Any], kind: str, timeout: float | None) -> Any:
        try:
            return future.result(timeout)
        except FutureTimeoutError:
            return self.expire(future, kind, timeout)

    def expire(self, future: Future[Any], kind: str, timeout: float | None) -> Any:
        """Settle a wait on a :meth:`submit` future that ran out of time.

        A request still queued is cancelled, so it never executes; one
        already executing finishes unobserved; either way the caller gets
        :class:`~repro.exceptions.ServingError`.  A future that is done by
        now keeps its own outcome (its result, or its exception — which
        may itself be a ``TimeoutError`` raised by the session).
        """
        future.cancel()
        if future.done() and not future.cancelled():
            return future.result()
        raise ServingError(
            f"batcher for {self._name!r}: {kind} request timed out "
            f"after {timeout} s (still queued or executing)"
        )

    def _withdraw(self, future: Future[Any]) -> None:
        """Free the queue slot of a request cancelled while still queued.

        Runs on whichever thread cancelled the future, so a cancelled
        request neither counts against ``max_queue`` nor holds a window
        open; one the dispatcher already popped is dropped there instead.
        The callback holds the batcher, never the request: a request whose
        future referred back to it would form a cycle that keeps the
        batcher and its session alive until the cyclic collector runs.
        """
        if not future.cancelled():
            return
        with self._cond:
            for request in self._queue:
                if request.future is future:
                    break
            else:
                return
            self._queue.remove(request)
            self._searching -= request.may_search
            self._cond.notify_all()

    def _ensure_dispatcher_locked(self) -> None:  # repro-lint: holds=_cond
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run,
                name=f"repro-batcher-{self._name}",
                daemon=True,
            )
            self._thread.start()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue and self._closed:
                    return
                # Batching window: held open only while a queued request
                # may run a size search, so concurrent new contracts fuse;
                # answers and size-cached repeats have nothing to share and
                # dispatch at once.  A full batch or close() cuts it short.
                deadline = time.monotonic() + self._window_seconds
                while (
                    self._searching
                    and len(self._queue) < self._max_batch
                    and not self._closed
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                popped = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self._max_batch))
                ]
                self._searching -= sum(request.may_search for request in popped)
                # A future cancelled after its request was popped, before
                # _withdraw could take the lock, is dropped here: it never
                # reaches the session either.
                batch = [
                    request
                    for request in popped
                    if request.future.set_running_or_notify_cancel()
                ]
                self._inflight += 1
            try:
                if batch:
                    self._execute(batch)
            finally:
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(
                            ServingError(
                                f"batcher for {self._name!r}: dispatch ended "
                                f"without completing a {request.kind} request"
                            )
                        )
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    def _execute(self, batch: list[_Request]) -> None:
        started = time.monotonic()
        waits = [started - request.enqueued_at for request in batch]
        duplicates = Counter(request.dedupe_key() for request in batch)
        answers = [request for request in batch if request.kind == "answer"]
        trains = [request for request in batch if request.kind == "train"]
        coalesced = sum(count - 1 for count in duplicates.values())
        for wait in waits:
            _QUEUE_WAIT_SECONDS.observe(wait)
        # Counted before any future completes, so a caller that reads
        # stats() after its result sees its own dispatch.
        with self._cond:
            self._batches += 1
            self._requests += len(batch)
            self._window_slots += self._max_batch
            self._coalesced += coalesced
            self._answer_requests += len(answers)
            self._train_requests += len(trains)
            self._queue_wait_seconds += sum(waits)
            self._max_queue_wait_seconds = max(
                self._max_queue_wait_seconds, max(waits, default=0.0)
            )
        with get_tracer().span(
            "coalescing.dispatch",
            batch=len(batch),
            coalesced=coalesced,
            answers=len(answers),
            trains=len(trains),
            window_slots=self._max_batch,
        ) as span:
            fused, serial = self._execute_batch(batch, answers, trains)
            span.set_attribute("fused_passes", fused)
            span.set_attribute("serial_passes", serial)

    def _execute_batch(
        self,
        batch: list[_Request],
        answers: list[_Request],
        trains: list[_Request],
    ) -> tuple[int, int]:
        """Run one fused dispatch; returns the (fused, serial) pass counts."""
        fused = serial = 0
        try:
            if answers:
                results = self._session.answer_many(
                    [request.contract for request in answers]
                )
                for request, result in zip(answers, results):
                    request.future.set_result(result)
            # recompute_at_theta_n is a per-request flag; fuse per flag value
            # (mixing them in one train_to_many would change members' results).
            for recompute in (False, True):
                group = [r for r in trains if r.recompute is recompute]
                if not group:
                    continue
                outcome = self._session.train_to_many(
                    [request.contract for request in group],
                    recompute_at_theta_n=recompute,
                )
                fused += outcome.fused_search_passes
                serial += outcome.serial_search_passes
                with self._cond:
                    self._fused_passes += outcome.fused_search_passes
                    self._serial_passes += outcome.serial_search_passes
                for request, result in zip(group, outcome.results):
                    request.future.set_result(result)
        except Exception:
            # Fused dispatch failed (e.g. one contract fails validation):
            # retry each unresolved request serially so only the offending
            # caller sees its error.  Deterministic caches make the retry
            # identical to a first-time serial call.
            for request in batch:
                if request.future.done():
                    continue
                try:
                    if request.kind == "answer":
                        result = self._session.answer(request.contract)
                    else:
                        result = self._session.train_to(
                            request.contract,
                            recompute_at_theta_n=request.recompute,
                        )
                except Exception as exc:  # noqa: BLE001 - handed to the caller
                    request.future.set_exception(exc)
                else:
                    request.future.set_result(result)
        return fused, serial

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Block until every request enqueued so far has completed."""
        with self._cond:
            while self._queue or self._inflight:
                self._cond.wait(timeout=0.05)

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting submissions; drain the queue, then stop the dispatcher.

        Requests already queued are still served (the window is cut short);
        submissions after close raise :class:`~repro.exceptions.ServingError`.
        Idempotent.
        """
        with self._cond:
            self._closed = True
            thread = self._thread
            self._cond.notify_all()
        if wait and thread is not None and thread is not threading.current_thread():
            thread.join()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __enter__(self) -> "ContractBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> BatcherStats:
        """An immutable snapshot of the coalescing counters."""
        with self._cond:
            return BatcherStats(
                batches=self._batches,
                requests=self._requests,
                coalesced_requests=self._coalesced,
                answer_requests=self._answer_requests,
                train_requests=self._train_requests,
                fused_passes=self._fused_passes,
                serial_passes=self._serial_passes,
                load_shed=self._load_shed,
                max_queue_depth=self._max_queue_depth,
                window_slots=self._window_slots,
                queue_wait_seconds=self._queue_wait_seconds,
                max_queue_wait_seconds=self._max_queue_wait_seconds,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self.stats()
        return (
            f"ContractBatcher({self._name!r}, batches={snapshot.batches}, "
            f"requests={snapshot.requests}, "
            f"coalesced={snapshot.coalesced_requests}, "
            f"passes_saved={snapshot.passes_saved})"
        )
