"""Evaluation harness: metrics, streaming diff engine, experiments, reporting.

These utilities are shared by the benchmark modules (one per figure/table of
the paper) and by the examples.  They keep the benchmarks thin: each bench
mostly wires a workload to :func:`repro.evaluation.experiments.run_accuracy_sweep`
or a sibling runner and prints the resulting rows.

Submodules are loaded lazily (PEP 562): the core estimators import
:mod:`repro.evaluation.streaming`, and an eager ``experiments`` import here
would close an import cycle back through :mod:`repro.core.coordinator`.
Lazy loading keeps ``from repro.evaluation import run_accuracy_sweep``
working while letting the streaming engine sit beneath the core layer.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "classification_accuracy": "repro.evaluation.metrics",
    "generalization_error": "repro.evaluation.metrics",
    "regression_r2": "repro.evaluation.metrics",
    "model_agreement": "repro.evaluation.metrics",
    "model_agreements": "repro.evaluation.metrics",
    "StreamingConfig": "repro.evaluation.streaming",
    "iter_holdout_blocks": "repro.evaluation.streaming",
    "streaming_prediction_differences": "repro.evaluation.streaming",
    "streaming_fanout_pairwise_prediction_differences": "repro.evaluation.streaming",
    "streaming_pass_count": "repro.evaluation.streaming",
    "SweepRecord": "repro.evaluation.experiments",
    "run_accuracy_sweep": "repro.evaluation.experiments",
    "run_baseline_comparison": "repro.evaluation.experiments",
    "measure_full_training": "repro.evaluation.experiments",
    "format_table": "repro.evaluation.reporting",
    "percentile": "repro.evaluation.reporting",
    "summarize": "repro.evaluation.reporting",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
