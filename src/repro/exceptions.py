"""Exception hierarchy for the BlinkML reproduction.

All library errors derive from :class:`BlinkMLError` so callers can catch a
single base class.  Each subclass corresponds to one failure mode of the
system described in the paper (invalid approximation contract, unsupported
model configuration, optimisation failure, or an infeasible sample-size
request).
"""

from __future__ import annotations


class BlinkMLError(Exception):
    """Base class for every error raised by this library."""


class ContractError(BlinkMLError):
    """Raised when an approximation contract (epsilon, delta) is invalid.

    Examples include ``epsilon`` outside ``(0, 1)`` or ``delta`` outside
    ``(0, 1)``.
    """


class ModelSpecError(BlinkMLError):
    """Raised when a model class specification is mis-configured.

    For instance a negative regularisation coefficient, a PPCA factor count
    larger than the feature dimension, or labels that do not match the task
    (non-binary labels passed to logistic regression).
    """


class OptimizationError(BlinkMLError):
    """Raised when an optimizer fails to make progress.

    The trainer treats non-finite losses or gradients as fatal; the error
    message records the iteration at which the failure occurred.
    """


class SampleSizeError(BlinkMLError):
    """Raised when no sample size in ``[n0, N]`` can satisfy the contract."""


class DataError(BlinkMLError):
    """Raised when a dataset is malformed (shape mismatch, empty split)."""


class StatisticsError(BlinkMLError):
    """Raised when the H/J statistics cannot be computed or factorised."""


class ServingError(BlinkMLError):
    """Raised by the coalescing serving tier (closed batcher, timed-out wait)."""


class ObservabilityError(BlinkMLError):
    """Raised by the observability tier (repro.obs) on misuse.

    Conflicting instrument redeclarations (same name, different kind or
    label set), label values for undeclared label names, negative counter
    increments, and snapshot merges across incompatible schemas (mismatched
    histogram buckets) all fail fast with this error — silently folding
    incompatible series would corrupt the accounting the tier exists to
    keep exact.
    """


class ServingOverloadError(ServingError):
    """Raised when the serving tier load-sheds a request.

    The serving front-end bounds each key's queue at ``max_queue``; a
    submission that would exceed the bound fails fast with this error
    instead of queueing unboundedly.  Callers should treat it as retryable
    backpressure.
    """
