"""BlinkML reproduction: approximate MLE training with probabilistic guarantees.

This package reimplements the BlinkML system (Park, Qing, Shen, Mozafari —
SIGMOD 2019) from scratch on NumPy/SciPy.  The top-level namespace
re-exports the pieces a typical user needs:

>>> from repro import BlinkML, ApproximationContract, LogisticRegressionSpec
>>> from repro.data import criteo_like, train_holdout_test_split
>>> splits = train_holdout_test_split(criteo_like(n_rows=20_000, n_features=50))
>>> trainer = BlinkML(LogisticRegressionSpec(regularization=1e-3), seed=0)
>>> result = trainer.train_with_accuracy(splits.train, splits.holdout, 0.95)
>>> result.estimated_accuracy >= 0.95
True

See README.md for the system inventory, docs/api.md for the full public
surface, docs/serving.md for the serving guide, and docs/architecture.md
for the layer boundaries; benchmarks/bench_fig*.py reproduce the paper's
figures.
"""

from repro.core.caching import CacheStats, LRUCache
from repro.core.contract import ApproximationContract
from repro.core.coordinator import BlinkML
from repro.core.registry import RegistryStats, SessionInfo, SessionRegistry
from repro.core.session import (
    CoalescedTrainOutcome,
    EstimationSession,
    SessionAnswer,
    SessionRefresh,
)
from repro.core.result import ApproximateTrainingResult, TimingBreakdown
from repro.core.accuracy import AccuracyEstimate, ModelAccuracyEstimator
from repro.core.sample_size import (
    FusedSizeSearch,
    SampleSizeEstimate,
    SampleSizeEstimator,
)
from repro.serving import BatcherStats, CoalescingService, ContractBatcher
from repro.core.statistics import (
    GradientMomentAccumulator,
    ModelStatistics,
    StatisticsMethod,
    compute_statistics,
)
from repro.core.parameter_sampler import ParameterSampler
from repro.linalg.moments import GradientMomentSummary
from repro.models import (
    LinearRegressionSpec,
    LogisticRegressionSpec,
    MaxEntropySpec,
    PoissonRegressionSpec,
    PPCASpec,
    ModelClassSpec,
    TrainedModel,
    get_model_spec,
    available_models,
)
from repro.data import (
    Dataset,
    ShardStore,
    ShardedDataset,
    train_holdout_test_split,
)
from repro.data.store import WarmCacheStats, WarmCacheTier
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    Span,
    Tracer,
    get_metrics,
    get_tracer,
    render_prometheus,
    render_span_tree,
)
from repro.exceptions import (
    BlinkMLError,
    ContractError,
    DataError,
    ModelSpecError,
    ObservabilityError,
    OptimizationError,
    SampleSizeError,
    ServingError,
    ServingOverloadError,
    StatisticsError,
)

__version__ = "1.0.0"

__all__ = [
    "ApproximationContract",
    "BlinkML",
    "CacheStats",
    "LRUCache",
    "EstimationSession",
    "SessionAnswer",
    "SessionRefresh",
    "SessionRegistry",
    "RegistryStats",
    "SessionInfo",
    "CoalescedTrainOutcome",
    "FusedSizeSearch",
    "ContractBatcher",
    "BatcherStats",
    "CoalescingService",
    "ApproximateTrainingResult",
    "TimingBreakdown",
    "AccuracyEstimate",
    "ModelAccuracyEstimator",
    "SampleSizeEstimate",
    "SampleSizeEstimator",
    "ModelStatistics",
    "StatisticsMethod",
    "compute_statistics",
    "GradientMomentAccumulator",
    "GradientMomentSummary",
    "ParameterSampler",
    "LinearRegressionSpec",
    "LogisticRegressionSpec",
    "MaxEntropySpec",
    "PoissonRegressionSpec",
    "PPCASpec",
    "ModelClassSpec",
    "TrainedModel",
    "get_model_spec",
    "available_models",
    "Dataset",
    "ShardStore",
    "ShardedDataset",
    "WarmCacheStats",
    "WarmCacheTier",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "Tracer",
    "get_metrics",
    "get_tracer",
    "render_prometheus",
    "render_span_tree",
    "train_holdout_test_split",
    "BlinkMLError",
    "ObservabilityError",
    "ContractError",
    "DataError",
    "ModelSpecError",
    "OptimizationError",
    "SampleSizeError",
    "ServingError",
    "ServingOverloadError",
    "StatisticsError",
    "__version__",
]
