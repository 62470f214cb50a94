"""Tests for the metrics registry, snapshots and exporters (repro.obs).

Everything here is deterministic: histograms are fed exact values against
the fixed log-spaced bucket ladder, snapshots are combined with hand-built
gauge instruments, and the Prometheus renderer is asserted byte-for-byte
(escaping, label ordering, cumulative buckets).
"""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import ObservabilityError
from repro.obs import (
    LATENCY_BUCKETS,
    InstrumentSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    load_json_snapshot,
    render_json,
    render_prometheus,
    write_json_snapshot,
)
from repro.obs.export import snapshot_from_dict, snapshot_to_dict
from repro.obs.metrics import SeriesValue


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests.", ("kind",))
        counter.inc(1, kind="answer")
        counter.inc(2, kind="train")
        counter.inc(1, kind="answer")
        assert counter.value(kind="answer") == 2
        assert counter.value(kind="train") == 2
        assert counter.total() == 4

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("ticks_total", "Ticks.")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_undeclared_label_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("ticks_total", "Ticks.", ("scope",))
        with pytest.raises(ObservabilityError):
            counter.inc(1, session="x")
        with pytest.raises(ObservabilityError):
            counter.inc(1)  # missing the declared label

    def test_get_or_create_conflicting_kind(self):
        registry = MetricsRegistry()
        registry.counter("thing_total", "Thing.")
        with pytest.raises(ObservabilityError):
            registry.histogram("thing_total", "Thing.")
        with pytest.raises(ObservabilityError):
            registry.counter("thing_total", "Thing.", ("extra",))

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("bad-name", "Dashes are not prometheus names.")


# ----------------------------------------------------------------------
# Histograms: exact bucket placement against the fixed ladder
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_placement_inclusive_upper(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "Latency.")
        # Exactly on a bound counts into that bound's bucket (le is
        # inclusive, prometheus semantics).
        histogram.observe(LATENCY_BUCKETS[0])
        histogram.observe(LATENCY_BUCKETS[0] / 2)
        histogram.observe(LATENCY_BUCKETS[3])
        histogram.observe(1e9)  # +Inf overflow slot
        snap = registry.snapshot().get("lat_seconds")
        series = snap.histogram_series[0]
        assert series.counts[0] == 2
        assert series.counts[3] == 1
        assert series.counts[-1] == 1  # overflow
        assert series.count == 4
        assert series.total == pytest.approx(
            LATENCY_BUCKETS[0] * 1.5 + LATENCY_BUCKETS[3] + 1e9
        )

    def test_custom_buckets_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.histogram("h", "H.", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ObservabilityError):
            registry.histogram("h2", "H.", buckets=())


# ----------------------------------------------------------------------
# Snapshots: combining and pickling
# ----------------------------------------------------------------------
def gauge(name: str, value: float, help_text: str = "") -> InstrumentSnapshot:
    """A hand-built unlabelled gauge-kind instrument."""
    return InstrumentSnapshot(
        name=name,
        kind="gauge",
        help=help_text,
        label_names=(),
        buckets=(),
        series=(SeriesValue(labels=(), value=value),),
    )


def build_snapshot(scale: int) -> MetricsSnapshot:
    """A registry's counter and histogram plus a gauge added by ``including``."""
    registry = MetricsRegistry()
    counter = registry.counter("passes_total", "Passes.", ("scope",))
    counter.inc(2 * scale, scope="accuracy")
    counter.inc(3 * scale, scope="size-search")
    histogram = registry.histogram("secs", "Secs.", buckets=(0.1, 1.0))
    for _ in range(scale):
        histogram.observe(0.0625)
        histogram.observe(4.0)
    return registry.snapshot().including([gauge("bytes", 10.0 * scale, "Bytes.")])


class TestSnapshotMerge:
    def test_snapshot_pickles(self):
        snapshot = build_snapshot(2)
        assert [i.kind for i in snapshot.instruments] == [
            "gauge",
            "counter",
            "histogram",
        ]
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone == snapshot
        assert render_prometheus(clone) == render_prometheus(snapshot)

    def test_including_sorts_by_name(self):
        snapshot = MetricsSnapshot(instruments=(gauge("b", 2.0),)).including(
            [gauge("c", 3.0), gauge("a", 1.0)]
        )
        assert [i.name for i in snapshot.instruments] == ["a", "b", "c"]
        assert snapshot.value("a") == 1.0
        assert snapshot.total("c") == 3.0

    def test_including_rejects_duplicate_names(self):
        registry = MetricsRegistry()
        registry.counter("taken_total", "Taken.").inc(1)
        with pytest.raises(ObservabilityError):
            registry.snapshot().including([gauge("taken_total", 1.0)])
        with pytest.raises(ObservabilityError):
            MetricsSnapshot(instruments=()).including([gauge("x", 1.0), gauge("x", 2.0)])


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
class TestPrometheusRendering:
    def test_counter_rendering_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs_total", "Requests served.", ("kind",))
        counter.inc(3, kind="train")
        counter.inc(1, kind="answer")
        assert render_prometheus(registry.snapshot()) == (
            "# HELP reqs_total Requests served.\n"
            "# TYPE reqs_total counter\n"
            'reqs_total{kind="answer"} 1\n'
            'reqs_total{kind="train"} 3\n'
        )

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("g", "G.", ("path",))
        counter.inc(1, path='a\\b"c\nd')
        rendered = render_prometheus(registry.snapshot())
        assert 'path="a\\\\b\\"c\\nd"' in rendered

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "H.", buckets=(0.5, 1.0))
        histogram.observe(0.2)
        histogram.observe(0.7)
        histogram.observe(9.0)
        rendered = render_prometheus(registry.snapshot())
        assert 'h_seconds_bucket{le="0.5"} 1' in rendered
        assert 'h_seconds_bucket{le="1"} 2' in rendered
        assert 'h_seconds_bucket{le="+Inf"} 3' in rendered
        assert "h_seconds_count 3" in rendered
        assert "h_seconds_sum 9.9" in rendered

    def test_series_order_deterministic(self):
        first = MetricsRegistry()
        c1 = first.counter("c_total", "C.", ("x",))
        c1.inc(1, x="b")
        c1.inc(1, x="a")
        second = MetricsRegistry()
        c2 = second.counter("c_total", "C.", ("x",))
        c2.inc(1, x="a")
        c2.inc(1, x="b")
        assert render_prometheus(first.snapshot()) == render_prometheus(
            second.snapshot()
        )


# ----------------------------------------------------------------------
# JSON round trip
# ----------------------------------------------------------------------
class TestJsonRoundTrip:
    def test_round_trip_is_lossless(self, tmp_path):
        snapshot = build_snapshot(3)
        path = tmp_path / "metrics.json"
        write_json_snapshot(snapshot, path)
        restored = load_json_snapshot(path)
        assert restored == snapshot
        assert render_json(restored) == render_json(snapshot)

    def test_unknown_version_rejected(self):
        payload = snapshot_to_dict(build_snapshot(1))
        payload["version"] = 99
        with pytest.raises(ObservabilityError):
            snapshot_from_dict(payload)

    def test_dump_command_rerenders_snapshot(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        snapshot = build_snapshot(1)
        path = tmp_path / "run.json"
        write_json_snapshot(snapshot, path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert out == render_prometheus(snapshot)
        assert main([str(path), "--format", "json"]) == 0
        assert capsys.readouterr().out == render_json(snapshot) + "\n"

    def test_dump_command_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("[]")
        assert main_exit_code(str(path)) == 1


def main_exit_code(*argv: str) -> int:
    from repro.obs.__main__ import main

    return main(list(argv))
