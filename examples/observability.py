"""Observability: scrape a serving fleet and reconstruct request causality.

The observability tier (`repro.obs`) instruments the whole serving stack
with zero dependencies: a metrics registry (counters and latency
histograms) that every layer ticks into, and a tracer whose spans record
how an `answer()` decomposes into size-search rounds and streamed passes.
Telemetry is always on and never changes results — it only records what
you can see.

The example runs a small fleet (two model families behind a
`CoalescingService`), serves a burst of contracts, then:

* prints the Prometheus text scrape the service exports — streamed-pass
  counters by scope, train/answer latency histograms, and the cache,
  registry and coalescing gauges the scrape renders from the service's
  own ``stats()`` and ``batching_stats()``;
* prints the span tree of the last request — the causal chain
  ``train_to → answer → size search → streaming passes``;
* writes a JSON snapshot and re-loads it via ``python -m repro.obs``'s
  machinery, a loss-free round trip for archiving a run's metrics.

Run with::

    python examples/observability.py

Set ``REPRO_EXAMPLES_SMOKE=1`` for the scaled-down CI configuration.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    ApproximationContract,
    CoalescingService,
    LinearRegressionSpec,
    LogisticRegressionSpec,
    get_tracer,
    render_span_tree,
)
from repro.data import gas_like, higgs_like, train_holdout_test_split
from repro.data.splits import SplitSpec
from repro.obs.export import load_json_snapshot, write_json_snapshot

SMOKE = bool(os.environ.get("REPRO_EXAMPLES_SMOKE"))


def build_fleet(service: CoalescingService) -> None:
    rows = 10_000 if SMOKE else 60_000
    spec_rows = dict(n_rows=rows, n_features=12)
    regression = train_holdout_test_split(
        gas_like(seed=501, **spec_rows),
        SplitSpec(holdout_fraction=0.3, test_fraction=0.1),
        rng=np.random.default_rng(502),
    )
    classification = train_holdout_test_split(
        higgs_like(seed=503, **spec_rows),
        SplitSpec(holdout_fraction=0.3, test_fraction=0.1),
        rng=np.random.default_rng(504),
    )
    kwargs = dict(
        initial_sample_size=300 if SMOKE else 800,
        n_parameter_samples=32 if SMOKE else 96,
        rng=0,
    )
    service.batcher(
        "gas-regression",
        LinearRegressionSpec.with_estimated_noise(
            regression.train, regularization=1e-3
        ),
        train=regression.train,
        holdout=regression.holdout,
        **kwargs,
    )
    service.batcher(
        "higgs-classifier",
        LogisticRegressionSpec(regularization=1e-3),
        train=classification.train,
        holdout=classification.holdout,
        **kwargs,
    )


def main() -> None:
    service = CoalescingService(window_ms=100.0)
    build_fleet(service)

    print("Serving a burst of contracts against both sessions...")
    for key in ("gas-regression", "higgs-classifier"):
        for epsilon, delta in ((0.2, 0.05), (0.15, 0.05), (0.2, 0.10)):
            service.answer_sync(key, ApproximationContract(epsilon, delta))
    tracer = get_tracer()
    tracer.clear()  # keep only the final request's spans for the tree below
    service.train_to_sync(
        "higgs-classifier", ApproximationContract(epsilon=0.12, delta=0.05)
    )

    print("\n=== Prometheus scrape (excerpt) ===")
    interesting = (
        "repro_streaming_passes_total",
        "repro_session_answer_seconds_count",
        "repro_session_train_seconds_count",
        "repro_size_search_rounds_total",
        "repro_coalescing_requests",
        "repro_cache_hits",
        "repro_registry_sessions",
        "repro_registry_bytes",
    )
    for line in service.prometheus_metrics().splitlines():
        if line.startswith(interesting):
            print(line)

    print("\n=== Span tree of the last train_to ===")
    # Through the coalescing tier the root is the batch dispatch; the tree
    # below it is session.train_to_many → size search → streamed passes.
    spans = tracer.finished_spans()
    roots = [span for span in spans if span.parent_id is None]
    print(render_span_tree(spans, trace_id=roots[-1].trace_id))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fleet-metrics.json"
        write_json_snapshot(service.metrics_snapshot(), path)
        restored = load_json_snapshot(path)
        print(
            f"\nJSON snapshot round trip: {path.name} -> "
            f"{restored.total('repro_streaming_passes_total'):.0f} streamed "
            "passes"
        )

    service.close()


if __name__ == "__main__":
    main()
