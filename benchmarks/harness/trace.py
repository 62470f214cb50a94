"""In-memory span tracer the harness wraps around library calls.

The wrappers only time the calls they wrap: arguments, return values and
exceptions pass through untouched, so a traced run returns the same
answers as an untraced one.  Each span records its name, start, end,
thread, parent and the request id the harness set for the current op.

Parents come from a context variable, which follows the calling thread
(and asyncio tasks).  Thread-pool workers do not inherit it, so a span
opened on a pool worker with no parent is attached afterwards to the
innermost fan-out span (a streamed pass or a statistics computation) on
another thread whose interval contains it.  A span's self time is its
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import itertools
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "harness_span", default=None
)
#: the id of the op the calling code is serving; set by the workloads.
REQUEST_ID: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "harness_request", default=None
)

#: spans under which pool workers run; orphans are adopted only by these.
FANOUT_SPANS = frozenset({"streaming.pass", "core.statistics"})
#: name prefix of the worker threads the streaming engine fans out to.
POOL_THREAD_PREFIX = "ThreadPoolExecutor"

Describe = Callable[["Span", tuple, dict, Any], None]


class Span:
    __slots__ = ("sid", "name", "start", "end", "thread", "parent", "rid", "attrs")

    def __init__(
        self,
        sid: int,
        name: str,
        start: float,
        thread: str,
        parent: int | None,
        rid: int | None,
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.parent = parent
        self.rid = rid
        self.attrs: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [
            self.sid, self.name, self.start, self.end,
            self.thread, self.parent, self.rid, self.attrs,
        ]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[2], row[4], row[5], row[6])
        span.end = row[3]
        span.attrs = dict(row[7])
        return span


def current_span() -> Span | None:
    return _CURRENT.get()


class Tracer:
    """Records spans in memory; installs and removes call wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = _CURRENT.get()
        span = Span(
            next(self._ids),
            name,
            self._clock(),
            threading.current_thread().name,
            None if parent is None else parent.sid,
            REQUEST_ID.get(),
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        record = self._open(name)
        record.attrs.update(attrs)
        token = _CURRENT.set(record)
        try:
            yield record
        finally:
            _CURRENT.reset(token)
            record.end = self._clock()

    def traced(
        self,
        original: Callable[..., Any],
        name: str,
        describe: Describe | None = None,
        prepare: Callable[[tuple, dict], tuple[tuple, dict]] | None = None,
    ) -> Callable[..., Any]:
        """``original`` wrapped in a span; ``describe`` records attributes."""

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = self._open(name)
            token = _CURRENT.set(record)
            try:
                if prepare is not None:
                    args, kwargs = prepare(args, kwargs)
                result = original(*args, **kwargs)
                if describe is not None:
                    describe(record, args, kwargs, result)
                return result
            finally:
                _CURRENT.reset(token)
                record.end = self._clock()

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        describe: Describe | None = None,
        prepare: Callable[[tuple, dict], tuple[tuple, dict]] | None = None,
    ) -> None:
        self.patch(cls, attr, self.traced(cls.__dict__[attr], name, describe, prepare))

    def wrap_function(
        self, function: Callable[..., Any], name: str, describe: Describe | None = None
    ) -> None:
        """Wrap ``function`` in every loaded ``repro`` module that binds it."""
        wrapper = self.traced(function, name, describe)
        attr = function.__name__
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            if vars(module).get(attr) is function:
                self.patch(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def export(self) -> list[list]:
        return [span.to_list() for span in self.spans]


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def covered_length(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def adopt_pool_orphans(spans: list[Span]) -> None:
    """Parent pool-worker spans to the innermost fan-out span containing them."""
    hosts = sorted(
        (span for span in spans if span.name in FANOUT_SPANS),
        key=lambda span: span.start,
    )
    starts = [span.start for span in hosts]
    for span in spans:
        if span.parent is not None or not span.thread.startswith(POOL_THREAD_PREFIX):
            continue
        index = bisect.bisect_right(starts, span.start) - 1
        while index >= 0:
            host = hosts[index]
            if host.thread != span.thread and host.end >= span.end:
                span.parent = host.sid
                if span.rid is None:
                    span.rid = host.rid
                break
            index -= 1


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.duration
        - covered_length(children.get(span.sid, []), span.start, span.end)
        for span in spans
    }
