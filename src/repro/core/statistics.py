"""Computation of the H and J statistics (Section 3.4), streamed over blocks.

Theorem 1 needs two model/data-aware quantities evaluated at the trained
parameter θ_n:

* ``J`` — the covariance of the per-example gradients (the Jacobian of
  ``g_n(θ) − r(θ)``);
* ``H`` — the Jacobian of the full gradient ``g_n(θ)`` (the Hessian of the
  objective).

Three methods are implemented, matching the paper:

``closed_form``
    Uses the model's analytic Hessian (available for Lin, LR, ME).  Exact
    but requires the d-by-d matrix, so only suitable for low-dimensional
    models.

``inverse_gradients``
    Numerically reconstructs H from d finite-difference probes of the
    ``grads`` function: ``g_n(θ_n + dθ) ≈ H dθ``.  Model-agnostic but calls
    ``grads`` d times, which Section 5.6 shows is slow for large d.

``observed_fisher`` (default)
    Uses the information-matrix equality: J equals the covariance of the
    per-example gradients, and ``H = J + J_r``.  Implemented through an SVD
    of a thin triangular factor of the per-example gradient matrix so no
    d-by-d matrix is ever formed — the factor feeds straight into the fast
    sampler of Section 4.3.

Every method is driven through the streaming tier: the source may be an
in-memory :class:`~repro.data.dataset.Dataset` or any
:class:`~repro.evaluation.streaming.BlockSource` (e.g. a memory-mapped
:class:`~repro.data.store.ShardedDataset`), consumed as zero-copy row
blocks by an accumulator that folds each block into a
shard-mergeable moment summary (:mod:`repro.linalg.moments`).  Resident
memory is O(block · d) — the full N×d per-example gradient matrix is never
materialised.

The fold unit decides where work can fan out without changing a bit.  A
store-backed source's unit is one shard: each shard is folded from zero
(fixed-size blocks from the shard start) on the streaming tier's one
executor (:func:`~repro.evaluation.streaming.map_units`), and the shard
summaries are left-folded in shard order.  Any other source is one unit —
ObservedFisher's TSQR update is not a merge of per-block partials — so it
folds serially on the calling thread whatever the worker count.

Store-backed sources additionally get a **per-shard statistics index**:
each shard's moment summary is persisted as a sidecar file keyed by
(model-spec digest, θ-digest, method, block size) next to the shard data
(:mod:`repro.data.store.statistics_index`), written lazily on first
computation and reused on every later bootstrap.  After an append, only the
new shards' summaries are computed; the merged result is bitwise identical
to a cold rebuild over the grown store, under every worker count,
because every per-shard summary is the same canonical fold and
the summaries merge in shard order.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.config import FINITE_DIFFERENCE_EPS
from repro.data.dataset import Dataset
from repro.evaluation.streaming import (
    BlockSource,
    StreamingConfig,
    map_units,
    stream_accumulate,
)
from repro.exceptions import StatisticsError
from repro.linalg.covariance import FactoredCovariance
from repro.linalg.moments import (
    BlockHessianSummary,
    GradientMomentSummary,
    MomentSummary,
    ProbeMomentSummary,
)
from repro.linalg.utils import symmetrize
from repro.models.base import ModelClassSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.store.statistics_index import StatisticsIndex


class StatisticsMethod(str, Enum):
    """The three statistics-computation strategies of Section 3.4."""

    CLOSED_FORM = "closed_form"
    INVERSE_GRADIENTS = "inverse_gradients"
    OBSERVED_FISHER = "observed_fisher"


@dataclass(frozen=True)
class ModelStatistics:
    """The factored covariance ``H⁻¹JH⁻¹`` plus provenance information.

    Attributes
    ----------
    covariance:
        The :class:`~repro.linalg.covariance.FactoredCovariance` factor L.
    method:
        Which of the three strategies produced it.
    sample_size:
        The number of training examples n the statistics were computed from
        (the initial sample size n0 in the coordinator workflow).
    computation_seconds:
        Wall-clock time spent computing the statistics; the Figure 8a
        runtime-breakdown benchmark reports this.
    reused_shard_summaries / computed_shard_summaries:
        For store-backed sources: how many per-shard moment summaries were
        loaded from the statistics sidecars versus computed from raw rows.
        Both zero for in-memory / generic block sources.
    source_digest:
        The content digest of a store-backed source at computation time
        (``None`` otherwise) — what :meth:`EstimationSession.refresh` and
        the registry compare to detect data growth.
    """

    covariance: FactoredCovariance
    method: StatisticsMethod
    sample_size: int
    computation_seconds: float = 0.0
    reused_shard_summaries: int = 0
    computed_shard_summaries: int = 0
    source_digest: str | None = None

    @property
    def dimension(self) -> int:
        return self.covariance.dimension


# ----------------------------------------------------------------------
# Digests keying the statistics sidecars
# ----------------------------------------------------------------------
def _stable_value_bytes(value: object) -> bytes:
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        return repr((array.dtype.str, array.shape)).encode() + array.tobytes()
    return repr(value).encode()


def spec_digest(spec: ModelClassSpec) -> str:
    """Content digest of a model-class specification.

    Hashes the spec's class identity plus its instance attributes
    (``vars(spec)``), so two specs that would train identically share a
    digest and a spec with a different regulariser or hyper-parameter gets
    a fresh one.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(type(spec).__module__.encode())
    digest.update(b"\x00")
    digest.update(type(spec).__qualname__.encode())
    state = vars(spec)
    for key in sorted(state):
        digest.update(b"\x00")
        digest.update(key.encode())
        digest.update(b"\x00")
        digest.update(_stable_value_bytes(state[key]))
    return digest.hexdigest()


def theta_digest(
    theta: np.ndarray,
    method: StatisticsMethod | str = StatisticsMethod.OBSERVED_FISHER,
    probe_eps: float = FINITE_DIFFERENCE_EPS,
) -> str:
    """Content digest of the parameter vector a summary was evaluated at.

    For InverseGradients the finite-difference step also participates —
    probe summaries taken with a different ε are not interchangeable.
    """
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(theta.shape).encode())
    digest.update(theta.tobytes())
    if StatisticsMethod(method) is StatisticsMethod.INVERSE_GRADIENTS:
        digest.update(np.float64(probe_eps).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Moment accumulators (the streaming replacements for the one-shot paths)
# ----------------------------------------------------------------------
class GradientMomentAccumulator:
    """Streaming ObservedFisher: folds per-example gradient blocks into a
    :class:`~repro.linalg.moments.GradientMomentSummary`.

    Memory stays at one ``(block_rows, d)`` gradient block plus an
    ``(≤d, d)`` triangular factor — the N×d matrix never exists.
    """

    needs_holdout_blocks = True

    def __init__(self, spec: ModelClassSpec, theta: np.ndarray):
        self.spec = spec
        self.theta = np.asarray(theta, dtype=np.float64)
        self._summary: GradientMomentSummary | None = None

    def update(self, block: Dataset) -> None:
        gradients = self.spec.per_example_gradients(self.theta, block)
        if self._summary is None:
            self._summary = GradientMomentSummary.from_gradients(gradients)
        else:
            self._summary = self._summary.updated(gradients)

    def merge(self, other: "GradientMomentAccumulator") -> None:
        theirs = other._summary
        if theirs is None:
            return
        self._summary = theirs if self._summary is None else self._summary.merge(theirs)

    def finalize(self) -> GradientMomentSummary:
        if self._summary is None:
            raise StatisticsError("no gradient blocks were accumulated")
        return self._summary


class ProbeGradientAccumulator:
    """Streaming InverseGradients: per-probe gradient sums over blocks.

    Evaluates the per-example gradients at θ and at the d finite-difference
    probes ``θ + ε e_j`` block by block, accumulating only the ``(d+1, d)``
    sum matrix — additive, hence trivially mergeable.
    """

    needs_holdout_blocks = True

    def __init__(
        self,
        spec: ModelClassSpec,
        theta: np.ndarray,
        probe_eps: float = FINITE_DIFFERENCE_EPS,
    ):
        self.spec = spec
        self.theta = np.asarray(theta, dtype=np.float64)
        self.probe_eps = float(probe_eps)
        self._summary: ProbeMomentSummary | None = None

    def update(self, block: Dataset) -> None:
        d = self.theta.shape[0]
        sums = np.empty((d + 1, d), dtype=np.float64)
        sums[0] = self.spec.per_example_gradients(self.theta, block).sum(axis=0)
        for j in range(d):
            probe = self.theta.copy()
            probe[j] += self.probe_eps
            sums[j + 1] = self.spec.per_example_gradients(probe, block).sum(axis=0)
        partial = ProbeMomentSummary(rows=block.n_rows, gradient_sums=sums)
        self._summary = partial if self._summary is None else self._summary.merge(partial)

    def merge(self, other: "ProbeGradientAccumulator") -> None:
        theirs = other._summary
        if theirs is None:
            return
        self._summary = theirs if self._summary is None else self._summary.merge(theirs)

    def finalize(self) -> ProbeMomentSummary:
        if self._summary is None:
            raise StatisticsError("no gradient blocks were accumulated")
        return self._summary


class BlockHessianAccumulator:
    """Streaming ClosedForm: row-weighted per-block Hessian sums.

    Every built-in analytic Hessian has the form ``(1/n) Σ hᵢ(θ) + βI``, so
    ``n_b · (H(θ, block) − βI)`` recovers the block's exact ``Σ hᵢ`` and the
    per-block sums add up to the full-dataset Hessian.
    """

    needs_holdout_blocks = True

    def __init__(self, spec: ModelClassSpec, theta: np.ndarray):
        if not spec.has_closed_form_hessian:
            raise StatisticsError(
                f"model {spec.name!r} has no closed-form Hessian; "
                "use inverse_gradients or observed_fisher"
            )
        self.spec = spec
        self.theta = np.asarray(theta, dtype=np.float64)
        self._summary: BlockHessianSummary | None = None

    def update(self, block: Dataset) -> None:
        hessian = np.asarray(
            self.spec.hessian(self.theta, block), dtype=np.float64
        )
        data_sum = block.n_rows * (
            hessian - self.spec.regularization * np.eye(hessian.shape[0])
        )
        partial = BlockHessianSummary(rows=block.n_rows, hessian_sum=data_sum)
        self._summary = partial if self._summary is None else self._summary.merge(partial)

    def merge(self, other: "BlockHessianAccumulator") -> None:
        theirs = other._summary
        if theirs is None:
            return
        self._summary = theirs if self._summary is None else self._summary.merge(theirs)

    def finalize(self) -> BlockHessianSummary:
        if self._summary is None:
            raise StatisticsError("no Hessian blocks were accumulated")
        return self._summary


@dataclass(frozen=True)
class _StatisticsTask:
    """Recipe for one streamed moment accumulation.

    The statistics-tier counterpart of the diff `_StreamTask`: what
    :func:`~repro.evaluation.streaming.stream_accumulate` folds for an
    in-memory source, and what :func:`~repro.evaluation.streaming.map_units`
    folds shard by shard for a store.
    """

    spec: ModelClassSpec
    method: StatisticsMethod
    theta: np.ndarray
    probe_eps: float
    source: "Dataset | BlockSource"

    def make_accumulator(
        self,
    ) -> "GradientMomentAccumulator | ProbeGradientAccumulator | BlockHessianAccumulator":
        if self.method is StatisticsMethod.CLOSED_FORM:
            return BlockHessianAccumulator(self.spec, self.theta)
        if self.method is StatisticsMethod.INVERSE_GRADIENTS:
            return ProbeGradientAccumulator(
                self.spec, self.theta, probe_eps=self.probe_eps
            )
        return GradientMomentAccumulator(self.spec, self.theta)

    def units(self, bounds: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
        # The whole source: ObservedFisher's TSQR ``updated`` is not a merge
        # of per-block partials, so re-blocking would change serial bits.
        return [bounds]


# ----------------------------------------------------------------------
# Summary → covariance
# ----------------------------------------------------------------------
def covariance_from_summary(
    spec: ModelClassSpec,
    summary: MomentSummary,
    probe_eps: float = FINITE_DIFFERENCE_EPS,
) -> FactoredCovariance:
    """Turn a merged moment summary into the factored covariance.

    The reconstruction the old one-shot helpers performed, now decoupled
    from where the moments came from (fresh blocks, executor partials or
    persisted shard sidecars).
    """
    beta = spec.regularization
    if isinstance(summary, GradientMomentSummary):
        return FactoredCovariance.from_gradient_summary(summary, regularization=beta)
    if isinstance(summary, ProbeMomentSummary):
        d = summary.dimension
        means = summary.gradient_sums / summary.rows
        # g_n(θ + ε e_j) − g_n(θ) ≈ ε H e_j.  The data terms are the probe
        # mean differences; the L2 regulariser contributes exactly βε e_j.
        H = (means[1:] - means[0]).T / probe_eps + beta * np.eye(d)
        H = symmetrize(H)
        J = H - beta * np.eye(d)
        return FactoredCovariance.from_dense(H, J, regularization=beta)
    if isinstance(summary, BlockHessianSummary):
        d = summary.dimension
        H = symmetrize(summary.hessian_sum / summary.rows + beta * np.eye(d))
        J = H - beta * np.eye(d)
        return FactoredCovariance.from_dense(H, J, regularization=beta)
    raise StatisticsError(f"unknown moment summary type {type(summary).__name__}")


# ----------------------------------------------------------------------
# Canonical per-shard summaries (the unit the sidecar index persists)
# ----------------------------------------------------------------------
def _shard_block_bounds(
    start: int, stop: int, block_rows: int
) -> list[tuple[int, int]]:
    """Fixed-size block bounds within one shard, anchored at the shard start.

    THE canonical decomposition: every per-shard summary — computed cold,
    computed during a refresh, or recomputed by a verification — folds the
    same blocks in the same order, which is what makes persisted summaries
    bitwise reproducible.
    """
    return [
        (block_start, min(block_start + block_rows, stop))
        for block_start in range(start, stop, block_rows)
    ]


def _merge_summaries(summaries: list[MomentSummary]) -> MomentSummary:
    """Left fold in shard order — the single merge order used everywhere."""
    merged = summaries[0]
    for summary in summaries[1:]:
        merged = merged.merge(summary)
    return merged


def _is_store_source(source: object) -> bool:
    """Duck-typed detection of a statistics-index-capable store source.

    Checked structurally (``statistics_index()`` + ``manifest``) so this
    module never imports :mod:`repro.data.store`.
    """
    return callable(getattr(source, "statistics_index", None)) and hasattr(
        source, "manifest"
    )


def _store_backed_summary(
    task: _StatisticsTask,
    source: Any,
    config: StreamingConfig,
    persist: bool,
) -> tuple[MomentSummary, int, int]:
    """Merged summary over a store source, reusing / refreshing sidecars.

    Returns ``(summary, reused, computed)``.  Missing shards are folded
    canonically, one shard per unit on the streaming executor, and, when
    ``persist`` is set, the complete per-shard summary set is republished
    so the next bootstrap — or a cold rebuild over the grown store — reads
    the identical bits.
    """
    index: StatisticsIndex = source.statistics_index()
    manifest = source.manifest
    key_spec = spec_digest(task.spec)
    key_theta = theta_digest(task.theta, task.method, task.probe_eps)
    cached = index.load(key_spec, key_theta, task.method.value, config.block_rows)

    shard_summaries: list[MomentSummary | None] = []
    missing: list[int] = []
    units: list[list[tuple[int, int]]] = []
    for position, shard in enumerate(manifest.shards):
        summary = cached.get(shard.digest)
        if summary is None:
            missing.append(position)
            units.append(_shard_block_bounds(shard.start, shard.stop, config.block_rows))
        shard_summaries.append(summary)

    for position, partial in zip(missing, map_units(task, units, config)):
        shard_summaries[position] = partial.finalize()

    if missing and persist:
        try:
            index.publish(
                key_spec,
                key_theta,
                task.method.value,
                config.block_rows,
                [shard.digest for shard in manifest.shards],
                shard_summaries,
            )
        except OSError:
            # Read-only stores still get statistics, just not persistence.
            pass

    merged = _merge_summaries(shard_summaries)
    reused = len(shard_summaries) - len(missing)
    return merged, reused, len(missing)


def compute_statistics(
    spec: ModelClassSpec,
    theta: np.ndarray,
    source: "Dataset | BlockSource",
    method: StatisticsMethod | str = StatisticsMethod.OBSERVED_FISHER,
    probe_eps: float = FINITE_DIFFERENCE_EPS,
    streaming: StreamingConfig | None = None,
    persist: bool = True,
) -> ModelStatistics:
    """Compute the parameter-covariance statistics at a trained θ.

    Parameters
    ----------
    spec:
        The model class specification.
    theta:
        The parameter vector of the (initial or approximate) trained model.
    source:
        The sample the model was trained on (size n); the statistics are
        the sample estimates of H and J at θ.  Accepts an in-memory
        :class:`~repro.data.dataset.Dataset` or any
        :class:`~repro.evaluation.streaming.BlockSource` — a memory-mapped
        :class:`~repro.data.store.ShardedDataset` additionally gets
        per-shard sidecar reuse.
    method:
        One of :class:`StatisticsMethod` (or its string value).  The default
        is ObservedFisher, the paper's default.
    probe_eps:
        Finite-difference step for InverseGradients.
    streaming:
        Block size / executor configuration; ``None`` means the default
        :class:`~repro.evaluation.streaming.StreamingConfig` (blocks of
        :data:`~repro.config.HOLDOUT_BLOCK_ROWS` rows, the
        session-wide worker default).
    persist:
        For store-backed sources: whether newly computed per-shard
        summaries may be written back as sidecars.  Pass ``False`` for
        throwaway evaluations (e.g. ``recompute_at_theta_n``) that must not
        garbage-collect the store's standing θ₀ sidecars.
    """
    method = StatisticsMethod(method)
    if streaming is None:
        streaming = StreamingConfig()
    if method is StatisticsMethod.CLOSED_FORM and not spec.has_closed_form_hessian:
        raise StatisticsError(
            f"model {spec.name!r} has no closed-form Hessian; "
            "use inverse_gradients or observed_fisher"
        )

    start = time.perf_counter()
    task = _StatisticsTask(
        spec=spec,
        method=method,
        theta=np.asarray(theta, dtype=np.float64),
        probe_eps=float(probe_eps),
        source=source,
    )
    reused = computed = 0
    source_digest: str | None = None
    if _is_store_source(source):
        summary, reused, computed = _store_backed_summary(
            task, source, streaming, persist
        )
        source_digest = source.content_digest()
    else:
        summary = stream_accumulate(task, streaming)
    covariance = covariance_from_summary(spec, summary, probe_eps=task.probe_eps)
    elapsed = time.perf_counter() - start
    return ModelStatistics(
        covariance=covariance,
        method=method,
        sample_size=summary.rows,
        computation_seconds=elapsed,
        reused_shard_summaries=reused,
        computed_shard_summaries=computed,
        source_digest=source_digest,
    )
