"""Streaming sharded holdout evaluation over pluggable block sources.

The batched ``diff`` evaluates all k candidate parameters against the
holdout with one GEMM per block instead of materialising the full
``(k, n_holdout)`` prediction block.  This module is its driver half:

* the holdout is consumed as contiguous row blocks through the
  :class:`BlockSource` protocol — an in-memory
  :class:`~repro.data.dataset.Dataset` (zero-copy slice views) or an
  out-of-core :class:`~repro.data.store.ShardedDataset` (zero-copy
  memory-mapped shard slices, block bounds snapped to shard boundaries);
* each block is fed to a :class:`~repro.models.base.DiffAccumulator`
  obtained from the model spec, which folds the block into per-candidate
  disagreement counts / squared-error sums;
* memory therefore stays O(k · block) no matter how large the holdout is —
  and with a sharded source, the *data* is never resident either;
* optionally, the fold fans out over a thread pool under one rule: each
  canonical *unit* (one block for the diff tasks) is folded from zero
  wherever it runs, and the caller left-folds the partials in source order
  with the ordinary :meth:`DiffAccumulator.merge` path — so the result is
  bitwise identical to the serial fold whatever the worker count.  Threads
  overlap real work because NumPy releases the GIL inside the per-block
  GEMMs of the built-in families.

Layering (see ``docs/architecture.md``): the estimation session and the
accuracy / sample-size estimators call the two ``streaming_*`` functions
below; the functions drive the spec's accumulators; only the model families
know how to decompose their metric over blocks; only the block source knows
where the rows live.  :func:`holdout_factor` is the one pass a family asks
for itself: stock Lin's accumulators take every diff from the memoised
d × d factor of the holdout instead of its rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import weakref
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.config import DEFAULT_STREAMING_WORKERS, HOLDOUT_BLOCK_ROWS
from repro.data.dataset import Dataset
from repro.exceptions import DataError
from repro.linalg.moments import _triangular_factor
from repro.linalg.utils import freeze
from repro.models.base import _BLAS_ROWS, DiffAccumulator, ModelClassSpec
from repro.obs import current_pass_scope, get_metrics, get_tracer

# Streamed-pass accounting: one tick per stream_accumulate() call that
# actually consumes holdout blocks (parameter-space metrics, Lin's factor
# diffs and the generic scalar-loop fallback never stream and never count;
# the holdout-factor sweep itself is one pass).  The coalescing
# serving tier's "passes saved" accounting is defined against this counter:
# tests and the bench_coalesced_serving gate measure fused-vs-serial
# executions by diffing it, so it must tick exactly once per pass no matter
# how many fan-out segments the pass carries.  Since the observability tier
# the counter lives in the process-global metrics registry, labelled by the
# calling scope ("accuracy" / "size-search" / "statistics" / "unscoped")
# and session label the caller set via repro.obs.pass_scope();
# streaming_pass_count() stays as a thin label-blind reader so every
# existing diff-two-readings call site keeps working unchanged.
_PASSES_TOTAL = get_metrics().counter(
    "repro_streaming_passes_total",
    "Streamed passes over a block source (one per stream_accumulate() "
    "call that consumes holdout blocks).",
    ("scope", "session"),
)
_PASS_BLOCKS_TOTAL = get_metrics().counter(
    "repro_streaming_blocks_total",
    "Holdout blocks consumed by streamed passes (parent-side accounting).",
    ("scope",),
)
_PASS_ROWS_TOTAL = get_metrics().counter(
    "repro_streaming_rows_total",
    "Holdout rows swept by streamed passes.",
    ("scope",),
)
_PASS_BYTES_TOTAL = get_metrics().counter(
    "repro_streaming_bytes_total",
    "Approximate bytes of holdout data swept by streamed passes "
    "(rows x 8-byte features, labels included).",
    ("scope",),
)
_PASS_SECONDS = get_metrics().histogram(
    "repro_streaming_pass_seconds",
    "Wall time of one streamed pass (fan-out included).",
    ("scope",),
)


def _count_streaming_pass() -> None:
    scope, session = current_pass_scope()
    _PASSES_TOTAL.inc(1, scope=scope, session=session)


def streaming_pass_count() -> int:
    """Process-lifetime count of streamed passes over any block source.

    Monotonic and thread-safe; diff two readings around a workload to count
    the holdout passes it cost.  Counts *passes*, not blocks and not
    segments: a fan-out pass evaluating many candidate segments in one
    block sweep counts once — that is precisely the economy the
    request-coalescing tier exists to create.

    A thin reader over the ``repro_streaming_passes_total`` metric (summed
    across its scope/session labels); scrape the registry
    (:func:`repro.obs.get_metrics`) for the per-scope attribution.
    """
    return int(_PASSES_TOTAL.total())


def _approx_pass_nbytes(blocks: BlockSource) -> int:
    """Approximate bytes one full sweep of ``blocks`` reads.

    Exact for in-memory datasets (the buffers' nbytes); sharded sources
    are estimated from the manifest row/feature counts (float64 features
    plus a label column when supervised) without touching a shard.  Zero
    for sources exposing neither surface — the bytes metric is telemetry,
    never accounting.
    """
    if isinstance(blocks, _DatasetBlocks):
        dataset = blocks._dataset
        y_nbytes = 0 if dataset.y is None else int(dataset.y.nbytes)
        return int(dataset.X.nbytes) + y_nbytes
    n_features = getattr(blocks, "n_features", None)
    if n_features is None:
        return 0
    columns = int(n_features) + (1 if getattr(blocks, "is_supervised", False) else 0)
    return blocks.n_rows * 8 * columns


@runtime_checkable
class BlockSource(Protocol):
    """Anything the streaming engine can shard into contiguous row blocks.

    Implemented by :class:`~repro.data.store.ShardedDataset`; in-memory
    :class:`Dataset` objects are adapted internally.  ``block_bounds`` must
    return contiguous, in-order ``[start, stop)`` ranges tiling
    ``[0, n_rows)``, each at most ``block_rows`` rows; ``read_block`` must
    return those rows as a :class:`Dataset` (zero-copy wherever possible).
    """

    @property
    def n_rows(self) -> int: ...

    def block_bounds(self, block_rows: int) -> list[tuple[int, int]]: ...

    def read_block(self, start: int, stop: int) -> Dataset: ...


@dataclass(frozen=True)
class StreamingConfig:
    """How the holdout is sharded and how many threads fold its blocks.

    Parameters
    ----------
    block_rows:
        Rows per holdout block; peak memory of a streamed diff is
        O(k · block_rows).
    n_workers:
        0 or 1 folds blocks serially on the calling thread; larger values
        fold the task's units (one block for a diff, one shard for
        store-backed statistics) on that many threads, each unit from zero,
        and left-fold the partials in source order.  The result is bitwise
        identical for every worker count.
    backend:
        Must be ``"threads"``, the only executor; any other value raises
        :class:`~repro.exceptions.DataError`.
    """

    block_rows: int = HOLDOUT_BLOCK_ROWS
    n_workers: int = DEFAULT_STREAMING_WORKERS
    backend: str = "threads"

    def __post_init__(self) -> None:
        if self.block_rows < 1:
            raise DataError("block_rows must be at least 1")
        if self.n_workers < 0:
            raise DataError("n_workers must be non-negative")
        if self.backend != "threads":
            raise DataError(
                f"unknown streaming backend {self.backend!r}; expected 'threads'"
            )


#: module default used whenever a caller passes ``config=None``.
DEFAULT_STREAMING_CONFIG = StreamingConfig()


def _block_view(dataset: Dataset, start: int, stop: int) -> Dataset:
    """A zero-copy row-slice view of ``dataset`` (contiguous slices only).

    The X/y buffers are views; metadata is propagated like every other
    Dataset transformation so metadata-aware custom accumulators see the
    same context on a block as on the full holdout.
    """
    y = None if dataset.y is None else dataset.y[start:stop]
    return Dataset(
        dataset.X[start:stop], y, name=dataset.name, metadata=dict(dataset.metadata)
    )


class _DatasetBlocks:
    """Adapter giving an in-memory :class:`Dataset` the block-source surface."""

    __slots__ = ("_dataset",)

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    @property
    def n_rows(self) -> int:
        return self._dataset.n_rows

    def block_bounds(self, block_rows: int) -> list[tuple[int, int]]:
        if block_rows < 1:
            raise DataError("block_rows must be at least 1")
        n = self._dataset.n_rows
        return [
            (start, min(start + block_rows, n)) for start in range(0, n, block_rows)
        ]

    def read_block(self, start: int, stop: int) -> Dataset:
        return _block_view(self._dataset, start, stop)


def as_block_source(source: "Dataset | BlockSource") -> BlockSource:
    """Adapt ``source`` to the block-source surface (Datasets are wrapped)."""
    if isinstance(source, Dataset):
        return _DatasetBlocks(source)
    for attribute in ("n_rows", "block_bounds", "read_block"):
        if not hasattr(source, attribute):
            raise DataError(
                f"{type(source).__name__} is neither a Dataset nor a BlockSource "
                f"(missing {attribute!r})"
            )
    return source


@runtime_checkable
class StreamTask(Protocol):
    """Recipe for one streamed block-fold evaluation.

    Anything :func:`stream_accumulate` can drive: it names the block source,
    knows how to build a fresh accumulator (an object with the
    :class:`~repro.models.base.DiffAccumulator` fold surface —
    ``needs_holdout_blocks`` / ``update`` / ``merge`` / ``finalize``), and
    names its fold *unit*: ``units(bounds)`` groups the source's block
    bounds into the runs a fan-out folds from zero.  A task may only pick
    units whose partials, left-folded in order onto a zero accumulator,
    reproduce the serial fold bit for bit.  Implemented by the diff tasks
    below and by the statistics task in :mod:`repro.core.statistics`.
    """

    @property
    def source(self) -> "Dataset | BlockSource": ...

    def make_accumulator(self) -> DiffAccumulator: ...

    def units(self, bounds: list[tuple[int, int]]) -> list[list[tuple[int, int]]]: ...


@dataclass(frozen=True)
class _StreamTask:
    """Recipe for one streamed diff evaluation.

    The spec, which accumulator factory to call, the parameter batches and
    the source: the single place the diff accumulator factory is defined.
    """

    spec: ModelClassSpec
    kind: str  # "diff" | "pairwise"
    Thetas_a: np.ndarray
    Thetas_b: np.ndarray
    source: "Dataset | BlockSource"

    def make_accumulator(self) -> DiffAccumulator:
        if self.kind == "diff":
            return self.spec.diff_accumulator(self.Thetas_a, self.Thetas_b, self.source)
        return self.spec.pairwise_diff_accumulator(
            self.Thetas_a, self.Thetas_b, self.source
        )

    def units(self, bounds: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
        # A block's sums added onto zero are exact, so per-block partials
        # left-folded in order equal the serial update loop bit for bit.
        return [[bound] for bound in bounds]


class FanoutDiffAccumulator(DiffAccumulator):
    """One block sweep folded into many independent sub-accumulators.

    The cross-caller coalescing primitive: each part is a complete
    per-segment accumulator (one per candidate sample size, k pairs each),
    and every holdout block is folded into all of them before the next
    block is read — so the union of many callers' candidate evaluations
    costs one pass over the data instead of one pass per caller.

    Determinism contract: each part sees exactly the blocks, block order
    and per-part parameter stack it would have seen running alone (the
    family closures are segment-local — ``predict_many`` runs per part
    with identical shapes either way), so the demultiplexed results are
    bitwise identical to serial per-segment passes.  ``finalize`` returns
    the *list* of per-part results, in part order.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[DiffAccumulator]):
        self.parts = list(parts)

    @property
    def needs_holdout_blocks(self) -> bool:
        return any(part.needs_holdout_blocks for part in self.parts)

    def update(self, block: Dataset) -> None:
        for part in self.parts:
            part.update(block)

    def merge(self, other: "FanoutDiffAccumulator") -> None:
        for mine, theirs in zip(self.parts, other.parts):
            mine.merge(theirs)

    def finalize(self) -> list:
        return [part.finalize() for part in self.parts]


@dataclass(frozen=True)
class _FanoutStreamTask:
    """Recipe bundling several diff tasks into one block sweep.

    All member tasks must share one block source (the session holdout); the
    fan-out accumulator is simply each member's own accumulator driven in
    lockstep, with the members' one-block units, so fan-out workers build
    and merge exactly as they do for a single task.
    """

    tasks: tuple[_StreamTask, ...]

    @property
    def source(self) -> "Dataset | BlockSource":
        return self.tasks[0].source

    def make_accumulator(self) -> FanoutDiffAccumulator:
        return FanoutDiffAccumulator([task.make_accumulator() for task in self.tasks])

    def units(self, bounds: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
        return self.tasks[0].units(bounds)


def _run_block_range(task: StreamTask, bounds: list[tuple[int, int]]) -> DiffAccumulator:
    """Worker body: one fresh accumulator over one unit."""
    accumulator = task.make_accumulator()
    blocks = as_block_source(task.source)
    for start, stop in bounds:
        accumulator.update(blocks.read_block(start, stop))
    return accumulator


def map_units(
    task: StreamTask, units: list[list[tuple[int, int]]], config: StreamingConfig
) -> list[Any]:
    """Fold each unit from zero, serially or on threads; partials in order.

    The one executor: :func:`stream_accumulate` maps a pass's units here,
    the statistics tier a store's missing shards.  Every unit runs
    :func:`_run_block_range`, so where a unit runs never changes its partial.
    """
    n_workers = min(config.n_workers, len(units))
    if n_workers <= 1:
        return [_run_block_range(task, unit) for unit in units]
    with ThreadPoolExecutor(max_workers=n_workers) as threads:
        return list(threads.map(_run_block_range, itertools.repeat(task), units))


def stream_accumulate(task: StreamTask, config: StreamingConfig) -> Any:
    """Fold the task's block source into one accumulator and finalize it.

    The streamed pass behind the ``streaming_*`` diff functions below and
    the statistics tier's in-memory moment fold; returns the accumulator's
    ``finalize()`` (a per-candidate diff vector or a moment summary).
    Serially (``n_workers <= 1``, or a single unit) the blocks fold in
    place; otherwise :func:`map_units` folds each unit from zero and the
    partials are left-folded onto the zero accumulator in source order —
    the same arithmetic, so the result never depends on the worker count
    or executor timing.
    """
    accumulator = task.make_accumulator()
    if not accumulator.needs_holdout_blocks:
        # Parameter-space metrics (PPCA) and the generic scalar-loop
        # fallback: nothing to shard.
        return accumulator.finalize()

    _count_streaming_pass()
    blocks = as_block_source(task.source)
    bounds = blocks.block_bounds(config.block_rows)
    # Per-pass telemetry: a span plus block/row/byte/wall-time metrics,
    # recorded on the calling thread around the fold, which it never touches.
    scope, _session = current_pass_scope()
    with get_tracer().span(
        "streaming.pass", scope=scope, blocks=len(bounds), rows=blocks.n_rows
    ) as span:
        units = task.units(bounds)
        if config.n_workers <= 1 or len(units) <= 1:
            for start, stop in bounds:
                accumulator.update(blocks.read_block(start, stop))
        else:
            for partial in map_units(task, units, config):
                accumulator.merge(partial)
        result = accumulator.finalize()
    _PASS_SECONDS.observe(span.duration, scope=scope)
    _PASS_BLOCKS_TOTAL.inc(len(bounds), scope=scope)
    _PASS_ROWS_TOTAL.inc(blocks.n_rows, scope=scope)
    _PASS_BYTES_TOTAL.inc(_approx_pass_nbytes(blocks), scope=scope)
    return result


class _TriangularFold:
    """TSQR of the rows' features: ``RᵀR = XᵀX`` over the blocks seen.

    Each block's own R is taken from zero and then stacked onto the running
    factor, so a block folded alone and merged gives the serial bytes.
    """

    needs_holdout_blocks = True

    def __init__(self) -> None:
        self._factor: np.ndarray | None = None
        self._rows = 0

    def _stack(self, factor: np.ndarray, rows: int) -> None:
        if self._factor is not None:
            factor = _triangular_factor(np.vstack([self._factor, factor]))
        self._factor = factor
        self._rows += rows

    def update(self, block: Dataset) -> None:
        self._stack(_triangular_factor(block.X), block.n_rows)

    def merge(self, other: "_TriangularFold") -> None:
        if other._factor is not None:
            self._stack(other._factor, other._rows)

    def finalize(self) -> np.ndarray:
        if self._factor is None:
            raise DataError("the holdout factor needs at least one row")
        return self._factor / np.sqrt(self._rows)


@dataclass(frozen=True)
class _HoldoutFactorTask:
    """Recipe for the one streamed pass behind :func:`holdout_factor`."""

    source: "Dataset | BlockSource"

    def make_accumulator(self) -> _TriangularFold:
        return _TriangularFold()

    def units(self, bounds: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
        return [[bound] for bound in bounds]


class _MemoisedFactor:
    """One source state's factor, computed once however many threads ask."""

    def __init__(self, source: "Dataset | BlockSource", state: str):
        self.source = weakref.ref(source)
        self.state = state
        self._lock = threading.Lock()
        self._factor: np.ndarray | None = None  # guarded-by: _lock  # repro-lint: frozen-attr

    def get(
        self, source: "Dataset | BlockSource", config: StreamingConfig | None
    ) -> np.ndarray:
        with self._lock:
            if self._factor is None:
                self._factor = freeze(_factor_pass(source, config))
            return self._factor


# Memoised factors by id(source).  An entry holds its source weakly, and the
# source's state: a Dataset is immutable, a store's manifest digest moves
# when reload() adopts new rows, and either change computes a new factor.
_FACTORS: dict[int, _MemoisedFactor] = {}  # guarded-by: _FACTORS_LOCK
_FACTORS_LOCK = threading.Lock()


def _source_state(source: "Dataset | BlockSource") -> str | None:
    """The contents a memoised factor stands for; None when unknown."""
    if isinstance(source, Dataset):
        return ""
    digest = getattr(source, "content_digest", None)
    return str(digest()) if callable(digest) else None


def _factor_pass(
    source: "Dataset | BlockSource", config: StreamingConfig | None
) -> np.ndarray:
    """The one streamed TSQR pass behind :func:`holdout_factor`."""
    config = dataclasses.replace(
        config or DEFAULT_STREAMING_CONFIG, block_rows=_BLAS_ROWS
    )
    return stream_accumulate(_HoldoutFactorTask(source), config)


def holdout_factor(
    source: "Dataset | BlockSource", config: StreamingConfig | None = None
) -> np.ndarray:
    """The ``(d, d)`` triangular R with ``RᵀR = XᵀX / m`` over the m rows.

    One streamed pass (one :func:`streaming_pass_count` tick and one
    ``streaming.pass`` span) folds the QR of each block of at most
    :data:`~repro.models.base._BLAS_ROWS` rows onto the running factor in
    row order, so its bytes depend neither on the BLAS thread count nor on
    ``config`` (which only sets the fan-out's worker count).  The factor is
    memoised per source and per source state, computed once under
    concurrent calls and returned read-only.  Fewer rows than columns give
    an ``(m, d)`` factor with the same Gram matrix.
    """
    state = _source_state(source)
    if state is None:
        return freeze(_factor_pass(source, config))
    with _FACTORS_LOCK:
        for key in [key for key, entry in _FACTORS.items() if entry.source() is None]:
            del _FACTORS[key]
        entry = _FACTORS.get(id(source))
        if entry is None or entry.source() is not source or entry.state != state:
            entry = _MemoisedFactor(source, state)
            _FACTORS[id(source)] = entry
    return entry.get(source, config)


def streaming_prediction_differences(
    spec: ModelClassSpec,
    theta_ref: np.ndarray,
    Thetas: np.ndarray,
    dataset: "Dataset | BlockSource",
    config: StreamingConfig | None = None,
) -> np.ndarray:
    """Batched ``diff``: ``v(θ_ref, Thetas[i])`` for each i, shape ``(k,)``.

    Drives the spec's :meth:`~ModelClassSpec.diff_accumulator` over the
    holdout blocks.  Agrees with the scalar ``prediction_difference`` loop
    to floating-point accuracy (bitwise for the classification families,
    whose block statistics are integer counts) while keeping memory at
    O(k · block_rows).  ``dataset`` may be an in-memory :class:`Dataset` or
    any :class:`BlockSource` (e.g. a memory-mapped
    :class:`~repro.data.store.ShardedDataset`).
    """
    config = config or DEFAULT_STREAMING_CONFIG
    return stream_accumulate(
        _StreamTask(
            spec=spec,
            kind="diff",
            Thetas_a=np.asarray(theta_ref, dtype=np.float64),
            Thetas_b=np.asarray(Thetas, dtype=np.float64),
            source=dataset,
        ),
        config,
    )


def streaming_fanout_pairwise_prediction_differences(
    spec: ModelClassSpec,
    segments: "list[tuple[np.ndarray, np.ndarray]]",
    dataset: "Dataset | BlockSource",
    config: StreamingConfig | None = None,
) -> list[np.ndarray]:
    """Evaluate several independent pairwise-diff segments in one pass.

    ``segments`` is a list of ``(Thetas_a, Thetas_b)`` parameter-batch
    pairs — in the sample-size search, one k-pair segment per candidate
    size, possibly pooled across *many concurrent callers*.  The holdout is
    swept exactly once (one :func:`streaming_pass_count` tick) and every
    block is folded into each segment's own accumulator, so the per-segment
    results are bitwise identical to one-segment calls — same per-segment
    GEMM shapes, same block order, same merge order — while the
    data-movement cost is shared.  Returns one difference vector per
    segment, in segment order; the one-segment call
    ``streaming_fanout_pairwise_prediction_differences(spec, [(a, b)], ...)[0]``
    is the elementwise batched ``diff`` ``v(a[i], b[i])``, driven through
    the spec's :meth:`~ModelClassSpec.pairwise_diff_accumulator`.
    """
    config = config or DEFAULT_STREAMING_CONFIG
    tasks = tuple(
        _StreamTask(
            spec=spec,
            kind="pairwise",
            Thetas_a=np.asarray(thetas_a, dtype=np.float64),
            Thetas_b=np.asarray(thetas_b, dtype=np.float64),
            source=dataset,
        )
        for thetas_a, thetas_b in segments
    )
    if not tasks:
        return []
    results = stream_accumulate(_FanoutStreamTask(tasks=tasks), config)
    return [np.asarray(result, dtype=np.float64) for result in results]
