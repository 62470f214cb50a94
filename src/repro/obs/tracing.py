"""Nested tracing spans with contextvar propagation and a bounded buffer.

A :class:`Tracer` issues :class:`Span` objects through a ``with`` context
manager; the *current* span is carried in a :class:`contextvars.ContextVar`,
so a span opened inside another span's scope becomes its child
automatically — across ordinary call chains and across asyncio tasks,
which inherit the creating task's context.  The
:class:`~repro.serving.service.CoalescingService` entry points therefore
need no handoff: each opens its ``service.*`` span in the caller's task
and awaits the batcher's future on the event loop, and its one hop off
the loop, :func:`asyncio.to_thread`, copies the context along.  Thread
pools do **not** inherit context (``ThreadPoolExecutor`` workers run in
their own contexts), so cross-thread causality there is explicit:
capture :meth:`Tracer.current_span` before submitting, then either pass
it as ``parent=`` or re-enter it in the worker with
:meth:`Tracer.activate`.  The batcher's dispatcher thread serves many
callers at once, so its ``coalescing.dispatch`` spans start their own
traces.

Determinism: the clock is injectable (tests drive a fake monotonic clock
and assert exact durations) and span/trace ids come from a plain counter,
not from randomness — a traced run is reproducible like every other part
of this codebase.  Completed spans land in a bounded ring buffer
(4096 entries by default, oldest dropped first) so a long-running
server's trace memory is O(buffer), never O(requests served).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.exceptions import ObservabilityError

#: completed spans the process tracer keeps (oldest dropped first).
_SPAN_BUFFER = 4096


@dataclass
class Span:
    """One timed, attributed operation in a trace tree.

    ``trace_id`` groups a whole request tree (a root span's trace id is
    its own span id; children inherit); ``parent_id`` is ``None`` for
    roots.  ``end`` stays ``None`` while the span is open.  Attributes are
    free-form key/values recorded at open time or via
    :meth:`set_attribute` while the span is current — a span is owned by
    the context that opened it, so mutation needs no lock.
    """

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds between start and end; raises while the span is open."""
        if self.end is None:
            raise ObservabilityError(f"span {self.name!r} is not finished")
        return self.end - self.start

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[str(key)] = value


#: sentinel distinguishing "no parent argument" from an explicit ``None``
#: (which forces a new root even inside another span's scope).
_INHERIT_PARENT = Span(
    name="<inherit>", trace_id=0, span_id=0, parent_id=None, start=0.0
)


class Tracer:
    """Produces spans, tracks the current one, buffers the finished ones.

    Parameters
    ----------
    clock:
        Zero-argument monotonic time source (default
        :func:`time.monotonic`).  Tests inject a fake for exact-duration
        assertions.
    buffer_size:
        Ring-buffer bound on completed spans (default 4096); the oldest
        are dropped first.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        buffer_size: int | None = None,
    ) -> None:
        size = _SPAN_BUFFER if buffer_size is None else int(buffer_size)
        if size < 1:
            raise ObservabilityError(f"tracer: buffer_size must be >= 1, got {size}")
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=size)  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        # Per-tracer so a test tracer's current span never leaks into the
        # process-global tracer's context (and vice versa).
        self._current: ContextVar[Span | None] = ContextVar(
            f"repro-obs-span-{id(self)}", default=None
        )

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def current_span(self) -> Span | None:
        """The innermost open span in this context (``None`` outside any)."""
        return self._current.get()

    @contextmanager
    def span(
        self,
        name: str,
        parent: Span | None = _INHERIT_PARENT,
        **attributes: object,
    ) -> Iterator[Span]:
        """Open a child of the current span (or of ``parent`` when given).

        ``parent=None`` forces a new root; omitting it inherits the
        context's current span.  The span becomes current for the dynamic
        extent of the ``with`` block and lands in the finished buffer on
        exit (including on exceptions, which are recorded under an
        ``"error"`` attribute).
        """
        effective_parent = (
            self.current_span() if parent is _INHERIT_PARENT else parent
        )
        span_id = self._new_id()
        span = Span(
            name=str(name),
            trace_id=(
                span_id if effective_parent is None else effective_parent.trace_id
            ),
            span_id=span_id,
            parent_id=(
                None if effective_parent is None else effective_parent.span_id
            ),
            start=self._clock(),
            attributes=dict(attributes),
        )
        token = self._current.set(span)
        try:
            yield span
        except BaseException as exc:
            span.set_attribute("error", type(exc).__name__)
            raise
        finally:
            self._current.reset(token)
            span.end = self._clock()
            with self._lock:
                self._finished.append(span)

    @contextmanager
    def activate(self, span: Span | None) -> Iterator[None]:
        """Make ``span`` current for a block — the cross-thread handoff.

        Capture :meth:`current_span` before submitting work to an
        executor, then wrap the worker body in ``activate(captured)`` so
        spans it opens become children of the submitting request instead
        of disconnected roots.
        """
        token = self._current.set(span)
        try:
            yield
        finally:
            self._current.reset(token)

    def finished_spans(self) -> list[Span]:
        """Completed spans, oldest first (bounded by the ring buffer)."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        """Drop every buffered finished span."""
        with self._lock:
            self._finished.clear()
