"""Render metrics snapshots as Prometheus text or JSON; draw span trees.

The scrape surface of the observability tier.  Everything here is pure —
renderers take a frozen :class:`~repro.obs.metrics.MetricsSnapshot` and
return a string — so exports can run anywhere: on the serving front-end
(:meth:`~repro.serving.service.CoalescingService.prometheus_metrics`),
from the ``python -m repro.obs`` dump command, or over a snapshot
restored with :func:`load_json_snapshot`.

Prometheus text exposition (version 0.0.4): one ``# HELP`` / ``# TYPE``
pair per instrument, label values escaped (backslash, double quote,
newline), label order fixed by the instrument's declared label names and
series sorted by label values — so two scrapes of equal state are
byte-identical and diffs in CI stay readable.  Histograms render the
cumulative ``_bucket{le="..."}`` series (inclusive upper bounds), the
``+Inf`` bucket, ``_sum`` and ``_count``.

The JSON form is a loss-free round trip: :func:`load_json_snapshot`
restores exactly the snapshot :func:`write_json_snapshot` saved, so
snapshots can be archived per run and re-rendered later.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from typing import Any

from repro.exceptions import ObservabilityError
from repro.obs.metrics import (
    HistogramValue,
    InstrumentSnapshot,
    MetricsSnapshot,
    SeriesValue,
)
from repro.obs.tracing import Span


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_block(names: Sequence[str], values: Sequence[str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """The snapshot in Prometheus text-exposition format (deterministic)."""
    lines: list[str] = []
    for instrument in snapshot.instruments:
        if instrument.help:
            lines.append(
                f"# HELP {instrument.name} {_escape_help(instrument.help)}"
            )
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        if instrument.kind == "histogram":
            for series in instrument.histogram_series:
                cumulative = 0
                for bound, count in zip(instrument.buckets, series.counts):
                    cumulative += count
                    block = _label_block(
                        instrument.label_names,
                        series.labels,
                        f'le="{_format_value(bound)}"',
                    )
                    lines.append(
                        f"{instrument.name}_bucket{block} {cumulative}"
                    )
                block = _label_block(
                    instrument.label_names, series.labels, 'le="+Inf"'
                )
                lines.append(f"{instrument.name}_bucket{block} {series.count}")
                block = _label_block(instrument.label_names, series.labels)
                lines.append(
                    f"{instrument.name}_sum{block} "
                    f"{_format_value(series.total)}"
                )
                lines.append(f"{instrument.name}_count{block} {series.count}")
        else:
            for series in instrument.series:
                block = _label_block(instrument.label_names, series.labels)
                lines.append(
                    f"{instrument.name}{block} {_format_value(series.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# JSON snapshot round trip
# ----------------------------------------------------------------------
def snapshot_to_dict(snapshot: MetricsSnapshot) -> dict[str, Any]:
    """The snapshot as plain JSON-serialisable dicts/lists (loss-free)."""
    instruments = []
    for instrument in snapshot.instruments:
        entry: dict[str, Any] = {
            "name": instrument.name,
            "kind": instrument.kind,
            "help": instrument.help,
            "label_names": list(instrument.label_names),
            "buckets": list(instrument.buckets),
        }
        if instrument.kind == "histogram":
            entry["series"] = [
                {
                    "labels": list(series.labels),
                    "counts": list(series.counts),
                    "sum": series.total,
                    "count": series.count,
                }
                for series in instrument.histogram_series
            ]
        else:
            entry["series"] = [
                {"labels": list(series.labels), "value": series.value}
                for series in instrument.series
            ]
        instruments.append(entry)
    return {"version": 1, "instruments": instruments}


def snapshot_from_dict(payload: dict[str, Any]) -> MetricsSnapshot:
    """Inverse of :func:`snapshot_to_dict` (rejects unknown versions)."""
    if payload.get("version") != 1:
        raise ObservabilityError(
            f"unsupported metrics snapshot version {payload.get('version')!r}"
        )
    instruments = []
    for entry in payload.get("instruments", []):
        kind = str(entry["kind"])
        series: tuple[SeriesValue, ...] = ()
        histogram_series: tuple[HistogramValue, ...] = ()
        if kind == "histogram":
            histogram_series = tuple(
                HistogramValue(
                    labels=tuple(str(v) for v in raw["labels"]),
                    counts=tuple(int(c) for c in raw["counts"]),
                    total=float(raw["sum"]),
                    count=int(raw["count"]),
                )
                for raw in entry.get("series", [])
            )
        else:
            series = tuple(
                SeriesValue(
                    labels=tuple(str(v) for v in raw["labels"]),
                    value=float(raw["value"]),
                )
                for raw in entry.get("series", [])
            )
        instruments.append(
            InstrumentSnapshot(
                name=str(entry["name"]),
                kind=kind,
                help=str(entry.get("help", "")),
                label_names=tuple(str(n) for n in entry["label_names"]),
                buckets=tuple(float(b) for b in entry.get("buckets", [])),
                series=series,
                histogram_series=histogram_series,
            )
        )
    return MetricsSnapshot(instruments=tuple(instruments))


def render_json(snapshot: MetricsSnapshot) -> str:
    """The snapshot as deterministic, indented JSON."""
    return json.dumps(snapshot_to_dict(snapshot), indent=2, sort_keys=True)


def write_json_snapshot(
    snapshot: MetricsSnapshot, path: str | os.PathLike[str]
) -> None:
    """Write the JSON form to ``path`` (parent directory must exist)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_json(snapshot))
        handle.write("\n")


def load_json_snapshot(path: str | os.PathLike[str]) -> MetricsSnapshot:
    """Load a snapshot previously saved by :func:`write_json_snapshot`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ObservabilityError(f"{os.fspath(path)!r}: not a metrics snapshot")
    return snapshot_from_dict(payload)


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------
def render_span_tree(spans: Sequence[Span], trace_id: int | None = None) -> str:
    """Draw finished spans as indented per-trace trees (deterministic).

    Children appear under their parents in span-id order; spans whose
    parent fell out of the ring buffer are promoted to roots so partial
    traces still render.  ``trace_id`` restricts the output to one trace.
    """
    selected = [
        span
        for span in spans
        if span.finished and (trace_id is None or span.trace_id == trace_id)
    ]
    by_id = {span.span_id: span for span in selected}
    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for span in selected:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        duration_ms = span.duration * 1000.0
        attributes = "".join(
            f" {key}={span.attributes[key]}" for key in sorted(span.attributes)
        )
        lines.append(
            f"{'  ' * depth}- {span.name} ({duration_ms:.3f} ms)"
            f"{attributes}"
        )
        for child in sorted(
            children.get(span.span_id, []), key=lambda s: s.span_id
        ):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda s: (s.trace_id, s.span_id)):
        emit(root, 0)
    return "\n".join(lines)
