"""Evaluation harness: metrics, streaming diff engine, experiments, reporting.

These utilities are shared by the benchmark modules (one per figure/table of
the paper) and by the examples.  They keep the benchmarks thin: each bench
mostly wires a workload to :func:`repro.evaluation.experiments.run_accuracy_sweep`
or a sibling runner and prints the resulting rows.

The package does not import :mod:`repro.evaluation.experiments`: the core
estimators import :mod:`repro.evaluation.streaming`, which runs this
``__init__`` first, and the experiment runners import the coordinator, so
importing them here would close a cycle.  Import them by their module path.
"""

from repro.evaluation.metrics import (
    generalization_error,
    model_agreement,
    model_agreements,
)
from repro.evaluation.reporting import format_table, percentile, summarize
from repro.evaluation.streaming import (
    StreamingConfig,
    streaming_fanout_pairwise_prediction_differences,
    streaming_pass_count,
    streaming_prediction_differences,
)

__all__ = [
    "generalization_error",
    "model_agreement",
    "model_agreements",
    "StreamingConfig",
    "streaming_prediction_differences",
    "streaming_fanout_pairwise_prediction_differences",
    "streaming_pass_count",
    "format_table",
    "percentile",
    "summarize",
]
