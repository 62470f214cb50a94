"""Unified observability tier: metrics, tracing and export for the stack.

One process-global :class:`~repro.obs.metrics.MetricsRegistry`
(:func:`get_metrics`) and one process-global
:class:`~repro.obs.tracing.Tracer` (:func:`get_tracer`) serve every
instrumented layer — streaming block fan-out, session serving, the
sample-size search, the coalescing tier.  The registry holds what the
stack records at the source: counters and histograms.  A fleet's gauges
(cache, warm-tier, coalescing and registry counters) are owned by its
stats snapshots and rendered into the scrape of the
:class:`~repro.serving.service.CoalescingService` that owns the fleet
(:meth:`~repro.serving.service.CoalescingService.metrics_snapshot`).

**Always live.**  Every instrumented layer records on every call: the
streamed-pass counter behind
:func:`~repro.evaluation.streaming.streaming_pass_count`, the per-pass
block/row/byte/wall-time metrics, the latency histograms, the event
counters and the tracing spans (opened with ``get_tracer().span``) — so
a scrape, the ``stats()`` surfaces and the span tree always describe
the same run.  Observation never changes a result: it draws no
randomness and touches no float path.  Completed spans land in the
tracer's bounded ring buffer, so trace memory stays O(buffer) however
long a server runs.

**Pass attribution.**  The streaming engine labels each pass with the
calling *scope* ("accuracy", "size-search", "statistics", …) and session
label carried in a :class:`contextvars.ContextVar`
(:func:`pass_scope` / :func:`current_pass_scope`): session entry points
set the scope around their streamed computations, and because context
variables flow through ordinary call chains and asyncio tasks, the
counter attributes passes correctly even when many sessions interleave
on one event loop.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs.export import (
    load_json_snapshot,
    render_json,
    render_prometheus,
    render_span_tree,
    write_json_snapshot,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Histogram,
    InstrumentSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Histogram",
    "InstrumentSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "Tracer",
    "current_pass_scope",
    "get_metrics",
    "get_tracer",
    "load_json_snapshot",
    "pass_scope",
    "render_json",
    "render_prometheus",
    "render_span_tree",
    "write_json_snapshot",
]

_GLOBAL_METRICS = MetricsRegistry()
_GLOBAL_TRACER = Tracer()

#: (scope, session) labels the streaming pass counter attributes ticks
#: to; context-local so interleaved sessions on one event loop attribute
#: correctly.
_PASS_SCOPE: ContextVar[tuple[str, str]] = ContextVar(
    "repro-obs-pass-scope", default=("unscoped", "")
)


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry (always live)."""
    return _GLOBAL_METRICS


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _GLOBAL_TRACER


def current_pass_scope() -> tuple[str, str]:
    """The (scope, session) labels streamed passes are attributed to."""
    return _PASS_SCOPE.get()


@contextmanager
def pass_scope(scope: str, session: str | None = None) -> Iterator[None]:
    """Attribute streamed passes in this block to ``scope`` (and session).

    ``session=None`` keeps the surrounding block's session label, so an
    estimator can refine the scope ("size-search") without knowing which
    session called it.
    """
    current = _PASS_SCOPE.get()
    token = _PASS_SCOPE.set(
        (str(scope), current[1] if session is None else str(session))
    )
    try:
        yield
    finally:
        _PASS_SCOPE.reset(token)
