"""Thread-safe metrics registry: counters and log-bucketed histograms.

The accounting substrate of the observability tier (see
``docs/observability.md``).  Two live instrument kinds cover everything
the stack records at the source:

* :class:`Counter` — monotone sums (streamed passes, size-search rounds,
  eviction events);
* :class:`Histogram` — fixed-bucket latency distributions.  The buckets
  are *fixed at declaration* (default :data:`LATENCY_BUCKETS`, a
  log-spaced 100 µs → 100 s ladder) so independently collected snapshots
  are always bucket-compatible.

Every instrument is named, labelled and thread-safe: one lock per
instrument guards its label-keyed series map, so hot-path increments from
the streaming executor's worker threads never contend with unrelated
instruments.  :meth:`MetricsRegistry.snapshot` freezes the whole registry
into a :class:`MetricsSnapshot` — plain frozen dataclasses of tuples that
the renderers in :mod:`repro.obs.export` turn into Prometheus text or
JSON.

A snapshot also carries ``"gauge"`` instruments that no registry holds:
values rendered at scrape time from a stats snapshot that owns them.
:meth:`MetricsSnapshot.including` adds them — a serving front-end's
scrape is the process snapshot including its fleet's gauges
(:func:`repro.obs.bridge.fleet_instruments`).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.exceptions import ObservabilityError

#: fixed log-spaced latency buckets (seconds): a 1-2.5-5 ladder from
#: 100 µs to 100 s.  Fixed — not per-declaration-tunable at call sites —
#: so every histogram in the system shares one bucket layout and series
#: from different runs or processes aggregate in Prometheus.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
)

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def _validate_metric_name(name: str) -> str:
    if not _METRIC_NAME.fullmatch(name):
        raise ObservabilityError(f"invalid metric name {name!r}")
    return name


def _validate_label_names(label_names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(label_names)
    if len(set(names)) != len(names):
        raise ObservabilityError(f"duplicate label names in {names!r}")
    for label in names:
        if not _LABEL_NAME.fullmatch(label):
            raise ObservabilityError(f"invalid label name {label!r}")
    return names


# ----------------------------------------------------------------------
# Snapshot dataclasses (immutable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SeriesValue:
    """One labelled counter/gauge series: its label values and its value."""

    labels: tuple[str, ...]
    value: float


@dataclass(frozen=True)
class HistogramValue:
    """One labelled histogram series.

    ``counts`` holds *per-bucket* (non-cumulative) observation counts, one
    per declared bucket bound plus a final overflow (+Inf) slot; the
    Prometheus renderer re-accumulates them into the cumulative ``le``
    form.  ``total`` is the sum of observed values, ``count`` the number
    of observations (== ``sum(counts)``).
    """

    labels: tuple[str, ...]
    counts: tuple[int, ...]
    total: float
    count: int


@dataclass(frozen=True)
class InstrumentSnapshot:
    """Frozen view of one instrument: schema plus every labelled series."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    label_names: tuple[str, ...]
    buckets: tuple[float, ...]  # empty for counters and gauges
    series: tuple[SeriesValue, ...] = ()
    histogram_series: tuple[HistogramValue, ...] = ()

    def value(self, **labels: str) -> float:
        """The scalar value of one series (0.0 when the series is absent)."""
        key = tuple(str(labels[name]) for name in self.label_names)
        for entry in self.series:
            if entry.labels == key:
                return entry.value
        return 0.0

    def total(self) -> float:
        """Sum over every labelled series (counters/gauges)."""
        return sum(entry.value for entry in self.series)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen view of a whole registry: every instrument, every series.

    Plain nested frozen dataclasses of tuples — picklable and hashable by
    construction.
    """

    instruments: tuple[InstrumentSnapshot, ...]

    def get(self, name: str) -> InstrumentSnapshot | None:
        """The named instrument's snapshot, or ``None``."""
        for instrument in self.instruments:
            if instrument.name == name:
                return instrument
        return None

    def value(self, name: str, **labels: str) -> float:
        """One series' scalar value (0.0 when instrument/series is absent)."""
        instrument = self.get(name)
        return 0.0 if instrument is None else instrument.value(**labels)

    def total(self, name: str) -> float:
        """Sum of the named instrument over every label set (0.0 if absent)."""
        instrument = self.get(name)
        return 0.0 if instrument is None else instrument.total()

    def including(
        self, instruments: Iterable[InstrumentSnapshot]
    ) -> MetricsSnapshot:
        """This snapshot plus ``instruments``, sorted by name.

        Raises :class:`~repro.exceptions.ObservabilityError` when a name
        appears twice, so an added family can never shadow a recorded one.
        """
        combined = sorted(
            (*self.instruments, *instruments), key=lambda entry: entry.name
        )
        duplicates = {a.name for a, b in zip(combined, combined[1:]) if a.name == b.name}
        if duplicates:
            raise ObservabilityError(
                f"duplicate instrument names in one snapshot: {sorted(duplicates)!r}"
            )
        return MetricsSnapshot(instruments=tuple(combined))


# ----------------------------------------------------------------------
# Live instruments
# ----------------------------------------------------------------------
class _Instrument:
    """Shared machinery: name/label validation and the series-key mapping."""

    kind = ""

    def __init__(self, name: str, help_text: str, label_names: Iterable[str]):
        self.name = _validate_metric_name(name)
        self.help = str(help_text)
        self.label_names = _validate_label_names(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ObservabilityError(
                f"instrument {self.name!r} takes labels {self.label_names!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def snapshot(self) -> InstrumentSnapshot:
        raise NotImplementedError


class Counter(_Instrument):
    """Monotone labelled sum; increments must be non-negative."""

    kind = "counter"

    def __init__(
        self, name: str, help_text: str = "", label_names: Iterable[str] = ()
    ):
        super().__init__(name, help_text, label_names)
        self._series: dict[tuple[str, ...], float] = {}  # guarded-by: _lock

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r}: negative increment {amount}"
            )
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._series.values())

    def snapshot(self) -> InstrumentSnapshot:
        with self._lock:
            series = tuple(
                SeriesValue(labels=labels, value=self._series[labels])
                for labels in sorted(self._series)
            )
        return InstrumentSnapshot(
            name=self.name,
            kind=self.kind,
            help=self.help,
            label_names=self.label_names,
            buckets=(),
            series=series,
        )


@dataclass
class _HistogramState:
    """Mutable per-series histogram state (bucket counts, sum, count)."""

    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0


class Histogram(_Instrument):
    """Fixed-bucket labelled distribution (Prometheus ``le`` semantics).

    An observation equal to a bucket bound lands *in* that bucket
    (inclusive upper bounds, matching Prometheus); observations above the
    last bound land in the implicit +Inf overflow slot.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label_names: Iterable[str] = (),
        buckets: Iterable[float] = LATENCY_BUCKETS,
    ):
        super().__init__(name, help_text, label_names)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ObservabilityError(f"histogram {self.name!r}: empty buckets")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {self.name!r}: buckets must increase strictly"
            )
        self.buckets = bounds
        self._series: dict[tuple[str, ...], _HistogramState] = {}  # guarded-by: _lock

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        index = bisect_left(self.buckets, float(value))
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = _HistogramState(counts=[0] * (len(self.buckets) + 1))
                self._series[key] = state
            state.counts[index] += 1
            state.total += float(value)
            state.count += 1

    def snapshot(self) -> InstrumentSnapshot:
        with self._lock:
            series = tuple(
                HistogramValue(
                    labels=labels,
                    counts=tuple(self._series[labels].counts),
                    total=self._series[labels].total,
                    count=self._series[labels].count,
                )
                for labels in sorted(self._series)
            )
        return InstrumentSnapshot(
            name=self.name,
            kind=self.kind,
            help=self.help,
            label_names=self.label_names,
            buckets=self.buckets,
            histogram_series=series,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Named instruments, one scrape surface.

    ``counter`` / ``histogram`` are get-or-create: a repeat declaration
    with the same schema returns the existing instrument (instrumented
    modules simply declare at import time); a conflicting redeclaration —
    different kind, labels or buckets — raises
    :class:`~repro.exceptions.ObservabilityError` instead of silently
    aliasing two meanings under one name.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}  # guarded-by: _lock

    def _get_or_create(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(instrument.name)
            if existing is None:
                self._instruments[instrument.name] = instrument
                return instrument
        if (
            existing.kind != instrument.kind
            or existing.label_names != instrument.label_names
            or getattr(existing, "buckets", ()) != getattr(instrument, "buckets", ())
        ):
            raise ObservabilityError(
                f"instrument {instrument.name!r} already declared as a "
                f"{existing.kind} with labels {existing.label_names!r}"
            )
        return existing

    def counter(
        self, name: str, help_text: str = "", label_names: Iterable[str] = ()
    ) -> Counter:
        instrument = self._get_or_create(Counter(name, help_text, label_names))
        assert isinstance(instrument, Counter)
        return instrument

    def histogram(
        self,
        name: str,
        help_text: str = "",
        label_names: Iterable[str] = (),
        buckets: Iterable[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        instrument = self._get_or_create(
            Histogram(name, help_text, label_names, buckets)
        )
        assert isinstance(instrument, Histogram)
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the registry: every instrument, sorted by name."""
        with self._lock:
            instruments = [
                self._instruments[name] for name in sorted(self._instruments)
            ]
        return MetricsSnapshot(
            instruments=tuple(
                instrument.snapshot() for instrument in instruments
            )
        )
