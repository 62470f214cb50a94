"""Tests for the tracing tier (repro.obs.tracing) and pass-scope attribution.

The tracer takes an injectable clock and counter-based ids, so every test
here asserts exact durations and exact tree shapes — no sleeps, no
tolerance windows.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import ObservabilityError
from repro.obs import (
    Tracer,
    current_pass_scope,
    pass_scope,
    render_span_tree,
)


class FakeClock:
    """Deterministic monotonic clock advanced explicitly by tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def tracer(clock: FakeClock) -> Tracer:
    return Tracer(clock=clock, buffer_size=64)


# ----------------------------------------------------------------------
# Span mechanics
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_exact_durations(self, tracer, clock):
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner", detail="x") as inner:
                clock.advance(0.25)
            clock.advance(0.5)
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == outer.span_id
        assert inner.duration == 0.25
        assert outer.duration == 1.75
        assert inner.attributes == {"detail": "x"}

    def test_open_span_has_no_duration(self, tracer):
        with tracer.span("open") as span:
            with pytest.raises(ObservabilityError):
                _ = span.duration

    def test_explicit_none_parent_forces_root(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("detached", parent=None) as detached:
                pass
        assert detached.parent_id is None
        assert detached.trace_id != outer.trace_id

    def test_exception_recorded_and_reraised(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.finished_spans()
        assert span.attributes["error"] == "ValueError"
        assert span.finished

    def test_ring_buffer_bounded(self, clock):
        tracer = Tracer(clock=clock, buffer_size=3)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["s7", "s8", "s9"]

    def test_current_span_restored_on_exit(self, tracer):
        assert tracer.current_span() is None
        with tracer.span("a") as a:
            assert tracer.current_span() is a
        assert tracer.current_span() is None


# ----------------------------------------------------------------------
# Context propagation: asyncio inherits, thread pools need activate()
# ----------------------------------------------------------------------
class TestPropagation:
    def test_asyncio_tasks_inherit_current_span(self, tracer, clock):
        async def child(name: str):
            with tracer.span(name):
                await asyncio.sleep(0)

        async def main():
            with tracer.span("request") as root:
                await asyncio.gather(child("left"), child("right"))
            return root

        root = asyncio.run(main())
        children = [
            span for span in tracer.finished_spans() if span.name != "request"
        ]
        assert {span.parent_id for span in children} == {root.span_id}
        assert {span.trace_id for span in children} == {root.trace_id}

    def test_thread_pool_needs_explicit_activate(self, tracer):
        with tracer.span("request") as root:
            with ThreadPoolExecutor(max_workers=1) as pool:
                # Without activate: the worker context has no current span,
                # so its span is a disconnected root.
                def naive():
                    with tracer.span("naive") as span:
                        return span

                naive_span = pool.submit(naive).result()

                # With activate: explicit handoff re-parents correctly.
                captured = tracer.current_span()

                def handed_off():
                    with tracer.activate(captured):
                        with tracer.span("adopted") as span:
                            return span

                adopted_span = pool.submit(handed_off).result()
        assert naive_span.parent_id is None
        assert adopted_span.parent_id == root.span_id
        assert adopted_span.trace_id == root.trace_id


# ----------------------------------------------------------------------
# Span tree rendering
# ----------------------------------------------------------------------
class TestSpanTree:
    def test_tree_shape_and_attributes(self, tracer, clock):
        with tracer.span("answer", key="k"):
            clock.advance(0.002)
            with tracer.span("size-search"):
                clock.advance(0.001)
                with tracer.span("streaming.pass", blocks=4):
                    clock.advance(0.0005)
        tree = render_span_tree(tracer.finished_spans())
        assert tree.splitlines() == [
            "- answer (3.500 ms) key=k",
            "  - size-search (1.500 ms)",
            "    - streaming.pass (0.500 ms) blocks=4",
        ]

    def test_orphans_promoted_to_roots(self, tracer):
        with tracer.span("parent") as parent:
            with tracer.span("child"):
                pass
        spans = [s for s in tracer.finished_spans() if s.name == "child"]
        assert parent.span_id not in {s.span_id for s in spans}
        tree = render_span_tree(spans)
        assert tree == "- child (0.000 ms)"

    def test_trace_filter(self, tracer):
        with tracer.span("first"):
            pass
        with tracer.span("second") as second:
            pass
        tree = render_span_tree(tracer.finished_spans(), trace_id=second.trace_id)
        assert tree == "- second (0.000 ms)"


# ----------------------------------------------------------------------
# Pass-scope attribution
# ----------------------------------------------------------------------
class TestPassScope:
    def test_default_is_unscoped(self):
        assert current_pass_scope() == ("unscoped", "")

    def test_nested_scopes_restore(self):
        with pass_scope("accuracy", session="LR"):
            assert current_pass_scope() == ("accuracy", "LR")
            with pass_scope("size-search"):
                # session label inherited, scope refined
                assert current_pass_scope() == ("size-search", "LR")
            assert current_pass_scope() == ("accuracy", "LR")
        assert current_pass_scope() == ("unscoped", "")

    def test_scope_flows_into_asyncio_tasks(self):
        async def probe():
            return current_pass_scope()

        async def main():
            with pass_scope("statistics", session="S"):
                return await asyncio.gather(probe(), probe())

        assert asyncio.run(main()) == [("statistics", "S")] * 2
