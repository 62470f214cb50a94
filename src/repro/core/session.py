"""Contract-serving estimation sessions.

A serving deployment answers many (ε, δ) approximation contracts against
the *same* initial model: the paper trains at most two models per contract,
but everything the estimators need — the initial model m_0, the factored
H/J statistics, the parameter sampler's cached base draws, and the sampled
model-difference distribution — is *contract-independent*.  An
:class:`EstimationSession` computes those once and serves any number of
contracts from them:

* the sorted sampled-difference vector for each (θ, n, N) triple is cached,
  so a repeat contract against the same model is answered by a pure
  conservative-quantile lookup (:func:`repro.core.guarantees.conservative_upper_bound`
  with ``assume_sorted=True``) — **zero new model evaluations, zero GEMMs**;
* models trained for one contract are cached by sample size and reused by
  any later contract that lands on the same n;
* with a warm tier (:mod:`repro.data.store.warm_cache`) m_0 and all three
  caches persist beneath the process, so a restarted session fits no model;
* all holdout evaluations stream through the sharded diff engine
  (:mod:`repro.evaluation.streaming`), so memory stays O(k · block).

The caches are thread-safe bounded LRUs (:mod:`repro.core.caching`):
``answer()`` / ``train_to()`` / ``sorted_differences()`` may be called from
a thread pool, concurrent misses for the same key run the computation once
(single-flight), and :meth:`EstimationSession.cache_stats` exposes
hit/miss/eviction counters per cache.  Capacity defaults come from
``repro.config`` (``DEFAULT_SESSION_DIFF_CACHE_ENTRIES`` etc.) and can be
overridden per session; ``None`` means unbounded.

Layer boundaries (see ``docs/architecture.md``)::

    BlinkML (facade) → EstimationSession → estimators → streaming engine → model specs

:class:`repro.core.coordinator.BlinkML` is a thin facade: each ``train()``
call builds a fresh single-use session, which reproduces the paper's
one-shot workflow exactly.  Long-lived serving callers construct the
session directly and call :meth:`EstimationSession.answer` /
:meth:`EstimationSession.train_to` per contract.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from typing import Any, Literal, cast

import numpy as np

from repro.config import (
    DEFAULT_SESSION_DIFF_CACHE_BYTES,
    DEFAULT_SESSION_DIFF_CACHE_ENTRIES,
    DEFAULT_SESSION_MODEL_CACHE_ENTRIES,
    DEFAULT_SESSION_SIZE_CACHE_ENTRIES,
    DELTA,
    INITIAL_SAMPLE_SIZE,
    NUM_PARAMETER_SAMPLES,
    SIZE_SEARCH_PROBE_BATCH,
    validate_delta,
)
from repro.core.accuracy import AccuracyEstimate, ModelAccuracyEstimator
from repro.core.caching import CacheStats, LRUCache
from repro.core.contract import ApproximationContract
from repro.core.guarantees import conservative_upper_bound
from repro.core.parameter_sampler import ParameterSampler
from repro.core.result import ApproximateTrainingResult, TimingBreakdown
from repro.core.sample_size import SampleSizeEstimate, SampleSizeEstimator
from repro.core.statistics import (
    ModelStatistics,
    StatisticsMethod,
    compute_statistics,
    spec_digest,
)
from repro.data.dataset import Dataset
from repro.data.sampling import UniformSampler
from repro.data.store import ShardedDataset
from repro.data.store.warm_cache import (
    DIFF_KIND,
    MODEL_KIND,
    SIZE_KIND,
    WarmCacheTier,
    array_digest,
    diff_entry_key,
    model_entry_key,
    resolve_warm_cache,
    size_entry_key,
)
from repro.evaluation.streaming import StreamingConfig
from repro.exceptions import BlinkMLError, DataError, SampleSizeError
from repro.linalg.utils import freeze
from repro.models.base import ModelClassSpec, TrainedModel
from repro.obs import get_metrics, get_tracer, pass_scope
from repro.optim.result import OptimizationResult

# Serving-latency histograms (repro.obs), labelled by the session's
# model-spec class so fleets mixing model families stay distinguishable in
# one scrape.
_ANSWER_SECONDS = get_metrics().histogram(
    "repro_session_answer_seconds",
    "Wall time of EstimationSession.answer() — quantile lookup when the "
    "difference vector is cached, one streamed evaluation otherwise.",
    ("session",),
)
_TRAIN_SECONDS = get_metrics().histogram(
    "repro_session_train_seconds",
    "Wall time of one EstimationSession.train_to_many() dispatch (a "
    "direct train_to() is a one-contract dispatch).",
    ("session",),
)


@dataclass(frozen=True)
class SessionAnswer:
    """Outcome of answering one contract without training anything new.

    Attributes
    ----------
    contract:
        The (ε, δ) contract that was asked.
    satisfied:
        Whether the session's initial model already meets the contract (in
        which case :meth:`EstimationSession.train_to` would return it
        directly).
    estimate:
        The initial model's accuracy estimate at the contract's δ, computed
        by quantile lookup on the session's cached difference vector.
    from_cache:
        True when this call performed zero model-difference evaluations:
        the difference vector was already cached, was being computed by a
        concurrent caller (single-flight wait), or was the degenerate
        all-zeros vector of the n ≥ N case.  Reported directly by the
        cache's ``get_or_compute``, so it stays accurate no matter how
        other threads interleave.
    """

    contract: ApproximationContract
    satisfied: bool
    estimate: AccuracyEstimate
    from_cache: bool


@dataclass(frozen=True)
class CoalescedTrainOutcome:
    """Outcome of one :meth:`EstimationSession.train_to_many` dispatch.

    Attributes
    ----------
    results:
        One :class:`~repro.core.result.ApproximateTrainingResult` per input
        contract, in input order — each bitwise identical (model θ, sample
        size, ε estimate, probe schedule) to what a serial
        :meth:`EstimationSession.train_to` call would have produced.
    fused_search_passes / serial_search_passes:
        Exact size-search pass accounting from the fused lockstep search
        (:class:`~repro.core.sample_size.FusedSizeSearch`): evaluation
        rounds actually executed versus the rounds the same contracts would
        have cost run back-to-back against this session (warm caches — the
        savings counted here come purely from cross-contract round sharing,
        not from cache effects a serial caller would also enjoy).  Zero /
        zero when every contract was already satisfied or size-cached.
    """

    results: tuple[ApproximateTrainingResult, ...]
    fused_search_passes: int
    serial_search_passes: int

    @property
    def passes_saved(self) -> int:
        """Search rounds the coalesced dispatch avoided."""
        return self.serial_search_passes - self.fused_search_passes


@dataclass(frozen=True)
class SessionRefresh:
    """Outcome of one :meth:`EstimationSession.refresh` call.

    Attributes
    ----------
    train_rows_before / train_rows_after / holdout_rows_before /
    holdout_rows_after:
        Row counts around the manifest reload (equal when nothing grew).
    train_changed / holdout_changed:
        Whether each side's content digest actually moved.
    statistics_recomputed:
        True when the session's H/J statistics were re-merged over the
        grown train store (``statistics_scope="train"`` only — sample-scope
        statistics describe the frozen initial sample and stay valid).
    reused_shard_summaries / computed_shard_summaries:
        The sidecar economics of that re-merge: how many per-shard moment
        summaries were loaded versus computed.  Refresh cost is O(new
        shards) precisely when ``reused`` covers the old shards.
    reanswered:
        Fresh :class:`SessionAnswer` for every standing contract this
        session has served, re-evaluated against the refreshed data (empty
        when nothing changed).
    """

    train_rows_before: int
    train_rows_after: int
    holdout_rows_before: int
    holdout_rows_after: int
    train_changed: bool
    holdout_changed: bool
    statistics_recomputed: bool
    reused_shard_summaries: int
    computed_shard_summaries: int
    reanswered: tuple[SessionAnswer, ...]

    @property
    def changed(self) -> bool:
        return self.train_changed or self.holdout_changed


class EstimationSession:
    """Owns one initial model and serves any number of (ε, δ) contracts.

    Construction runs steps 1–2 of the coordinator workflow (Section 2.3)
    once: draw D0, train m_0 (or load it from the warm tier), compute the
    H/J statistics, build the shared
    :class:`~repro.core.parameter_sampler.ParameterSampler`.  Everything
    after that is per-contract and served from caches wherever possible.

    Parameters
    ----------
    spec / train / holdout:
        The model class, full training data D (size N), and the holdout set
        used only for estimating prediction differences.  Both datasets may
        be in-memory :class:`Dataset` objects or out-of-core
        :class:`~repro.data.store.ShardedDataset` stores: a sharded train
        set is sampled by index (only the drawn rows are ever gathered into
        memory), and a sharded holdout streams through the diff engine as
        zero-copy memory-mapped blocks — row *data* is never materialised.
        Caveat: the nested-sampling machinery still keeps an O(N) *index*
        permutation (8 bytes per train row — see
        :class:`~repro.data.sampling.UniformSampler`), so train-set scale
        is bounded by index memory, holdout scale by disk alone.
    initial_sample_size / n_parameter_samples / statistics_method:
        As on :class:`repro.core.coordinator.BlinkML`.  m_0 and every m_n
        are fitted with the paper's optimizer rule (Section 5.1).
    streaming:
        Sharding configuration forwarded to both estimators (``None`` uses
        the module default).
    probe_batch:
        Ceiling on the candidate sizes one size-search round evaluates
        (:meth:`~repro.core.sample_size.SampleSizeEstimator.estimate`).  It
        changes only which sizes the search probes: where Lemma 2's check
        is monotone in n (Theorem 2), every value returns the same n.
    rng:
        Seed or ``numpy.random.Generator``.  The facade passes its own
        seeded generator, so ``BlinkML.train()`` is deterministic per seed:
        the nested samples and the parameter sampler's base draws both come
        from it.
    diff_cache_entries / diff_cache_bytes / model_cache_entries /
    size_cache_entries:
        LRU bounds for the three session caches (``None`` = unbounded);
        defaults come from :mod:`repro.config`.  The initial model m_0 is
        pinned outside the model cache and can never be evicted.
    warm_cache:
        Optional cross-process warm tier
        (:class:`~repro.data.store.warm_cache.WarmCacheTier`) persisted
        beneath m_0 and the diff, size and model caches: the constructor
        loads m_0 from it, an in-memory miss probes the tier's
        digest-verified entries before computing, and fresh computes are
        written behind, so a restarted process answers repeat contracts
        with zero streamed passes and fits no model.
        Accepts a tier instance, a directory path (shared per-path within
        the process), ``None`` to consult ``REPRO_WARM_CACHE_DIR``
        (disabled when unset), or ``False`` to force the cold path
        regardless of environment.  Diff and size keys fold in the spec /
        holdout / θ digests *and* a digest of the sampler's base draws;
        model keys the spec / train / θ₀ digests (m_0's θ₀ is
        ``spec.initial_parameters(D0)``, m_n's is m_0's θ), a digest of the
        nested sampler's permutation and n.  Equal keys imply bitwise-identical
        inputs, so a warm hit returns exactly what a cold compute would.
    """

    def __init__(
        self,
        spec: ModelClassSpec,
        train: Dataset | ShardedDataset,
        holdout: Dataset | ShardedDataset,
        *,
        initial_sample_size: int = INITIAL_SAMPLE_SIZE,
        n_parameter_samples: int = NUM_PARAMETER_SAMPLES,
        statistics_method: StatisticsMethod | str = StatisticsMethod.OBSERVED_FISHER,
        statistics_scope: str = "sample",
        streaming: StreamingConfig | None = None,
        probe_batch: int = SIZE_SEARCH_PROBE_BATCH,
        rng: np.random.Generator | int | None = None,
        diff_cache_entries: int | None = DEFAULT_SESSION_DIFF_CACHE_ENTRIES,
        diff_cache_bytes: int | None = DEFAULT_SESSION_DIFF_CACHE_BYTES,
        model_cache_entries: int | None = DEFAULT_SESSION_MODEL_CACHE_ENTRIES,
        size_cache_entries: int | None = DEFAULT_SESSION_SIZE_CACHE_ENTRIES,
        warm_cache: WarmCacheTier | str | os.PathLike[str] | Literal[False] | None = None,
    ):
        if holdout.n_rows == 0:
            raise DataError("holdout set must not be empty")
        if statistics_scope not in ("sample", "train"):
            raise BlinkMLError(
                f"statistics_scope must be 'sample' or 'train', got "
                f"{statistics_scope!r}"
            )
        self.spec = spec
        # Label streamed passes / latency series are attributed to: the
        # model-spec class name distinguishes sessions in a mixed fleet
        # without leaking dataset contents into metric labels.
        self._session_label = type(spec).__name__
        self.train_data = train
        self.holdout = holdout
        self.statistics_method = StatisticsMethod(statistics_method)
        self.statistics_scope = statistics_scope
        probe_batch = int(probe_batch)
        if probe_batch < 1:
            raise SampleSizeError(
                f"probe_batch must be at least 1, got {probe_batch} "
                "(1 = paper bisection; larger values stack candidates per "
                "size-search pass)"
            )
        self._probe_batch = probe_batch
        self._n_parameter_samples = int(n_parameter_samples)
        self._streaming = streaming
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

        self._N = train.n_rows  # guarded-by: _refresh_lock
        self._n0 = min(int(initial_sample_size), self._N)
        self._data_sampler = UniformSampler(train, rng=self._rng)  # guarded-by: _refresh_lock

        # Warm tier beneath m_0 and all three caches: digest-keyed on-disk
        # artifacts shared across restarts and co-located processes.  Keys
        # fold in a digest of the sampler's base draws or of the nested
        # sampler's permutation — building a key *draws* those frozen
        # blocks, which keeps RNG consumption identical between a warm hit
        # and the cold compute it replaces.
        self._warm_cache = tier = resolve_warm_cache(warm_cache)
        self._spec_digest = spec_digest(spec)

        # Step 1: initial model m_0 on D0 (once per session), or its warm
        # entry — a restart with a populated tier fits no model at all.
        start = time.perf_counter()
        initial_data = self._data_sampler.nested_sample(self._n0)
        initial_model = self._initial_fit(initial_data)
        self._initial_training_seconds = time.perf_counter() - start

        # Step 2: H/J statistics at θ_0 and the shared parameter sampler.
        # Scope "sample" (default, the paper's workflow) evaluates them on
        # the frozen initial sample D0; scope "train" streams them over the
        # full train source — with a sharded store this persists per-shard
        # sidecar summaries, which is what makes refresh() after an append
        # O(new shards) instead of a cold rebuild.
        self._statistics = self._compute_scope_statistics(  # guarded-by: _refresh_lock
            initial_model.theta, initial_data
        )
        self._parameter_sampler = ParameterSampler(self._statistics, rng=self._rng)  # guarded-by: _refresh_lock
        self._accuracy_estimator = ModelAccuracyEstimator(
            spec, holdout, n_parameter_samples=n_parameter_samples, streaming=streaming
        )
        self._size_estimator = SampleSizeEstimator(
            spec, holdout, n_parameter_samples=n_parameter_samples, streaming=streaming
        )

        # Caches: sorted difference vectors per (θ-digest, n, N), trained
        # models per sample size, and sample-size search outcomes per (ε, δ)
        # so a repeated contract is served without re-running the search.
        # All three are thread-safe bounded LRUs with single-flight computes
        # (repro.core.caching); m_0 lives only in its pinned attribute —
        # never in the model cache — so eviction can never lose it
        # (_train_cached short-circuits n == n0 before consulting the cache).
        self._initial_model = initial_model

        def generation() -> int:
            return self._generation

        self._diff_cache = LRUCache(  # repro-lint: frozen-cache
            "diff",
            max_entries=diff_cache_entries,
            max_bytes=diff_cache_bytes,
            sizeof=lambda vector: int(vector.nbytes),
            warm_tier=None if tier is None else _WarmAdapter(
                tier, DIFF_KIND, self._warm_diff_key, lambda vector: {"differences": vector},
                self._differences_from_payload, generation,
            ),
        )
        self._model_cache = LRUCache(
            "model",
            max_entries=model_cache_entries,
            sizeof=lambda model: int(model.theta.nbytes),
            warm_tier=None if tier is None else _WarmAdapter(
                tier, MODEL_KIND, self._warm_model_key, _model_payload,
                lambda payload: self._model_from_payload(
                    payload, self._initial_model.theta.shape
                ),
                generation,
            ),
        )
        self._size_cache = LRUCache(
            "size",
            max_entries=size_cache_entries,
            warm_tier=None if tier is None else _WarmAdapter(
                tier, SIZE_KIND, self._warm_size_key, _size_estimate_payload,
                _size_estimate_from_payload, generation,
            ),
        )
        # Shared read-only zeros vector for the degenerate n >= N estimate:
        # the full model differs from itself by exactly zero, so there is
        # nothing to sample and nothing worth a per-n cache entry.
        self._full_data_differences = freeze(  # repro-lint: frozen-attr
            np.zeros(self._n_parameter_samples, dtype=np.float64)
        )
        # The session-construction costs (initial training, statistics) are
        # reported in the first train_to() result only; later results from
        # the same session report them as zero so aggregating timings across
        # contracts does not double-count the amortised one-time work.  The
        # lock makes the claim-once race-free under concurrent train_to().
        self._construction_costs_reported = False  # guarded-by: _construction_costs_lock
        self._construction_costs_lock = threading.Lock()
        # Serving-time bookkeeping for the cross-session registry
        # (repro.core.registry): when this session last served a request
        # (monotonic clock; plain float writes are atomic under the GIL, so
        # no lock is needed for a freshness heuristic).
        self._last_used_at = time.monotonic()
        # Standing contracts: every (ε, δ) this session has been asked,
        # insertion-ordered, so refresh() can re-answer them against grown
        # data.  Guarded by its own lock (answer() runs from thread pools).
        self._standing_contracts: dict[ApproximationContract, None] = {}  # guarded-by: _standing_contracts_lock
        self._standing_contracts_lock = threading.Lock()
        # refresh() is serialized: concurrent refreshes would race the
        # sampler / statistics swaps against each other.  The swapped state
        # itself — N, the nested sampler, the statistics and the parameter
        # sampler derived from them — may therefore only be *mutated* under
        # this lock (reads are lock-free: each is an atomic reference swap
        # and every serving path tolerates either the old or new snapshot).
        self._refresh_lock = threading.Lock()
        # Bumped as each refresh begins, before any state moves: a warm
        # entry is published only if no refresh began since its key was
        # built, so a compute that straddles a refresh never lands under a
        # key built from the other side of it.
        self._generation = 0  # guarded-by: _refresh_lock

    def _compute_scope_statistics(
        self, theta: np.ndarray, initial_data: Dataset | None
    ) -> ModelStatistics:
        """H/J statistics at ``theta`` on the session's configured scope.

        Scope "train" streams the full train source and ignores
        ``initial_data``, so ``refresh()`` passes ``None``.
        """
        source = (
            self.train_data
            if self.statistics_scope == "train" or initial_data is None
            else initial_data
        )
        with pass_scope("statistics", session=self._session_label):
            return compute_statistics(
                self.spec,
                theta,
                source,
                method=self.statistics_method,
                streaming=self._streaming,
            )

    # ------------------------------------------------------------------
    # Registry integration: resizable caps, idle time
    # ------------------------------------------------------------------
    # How a registry-assigned byte budget is split across the three caches.
    # The sorted-difference vectors dominate (k float64s per (θ, n) pair);
    # models hold one θ each; size-search results are tiny dataclasses.
    CACHE_BUDGET_SPLIT = {"diff": 0.70, "model": 0.20, "size": 0.10}

    def resize_cache_budget(self, total_bytes: int) -> None:
        """Re-cap the session's caches to a combined ``total_bytes`` budget.

        Called by :class:`repro.core.registry.SessionRegistry` whenever the
        fleet grows or shrinks: the global pool is divided among member
        sessions and each session re-splits its share across its caches
        according to :data:`CACHE_BUDGET_SPLIT`.  Shrinking evicts down
        immediately (m_0 is pinned outside the model cache and can never be
        evicted; evicted entries recompute bitwise-identically on next use).
        """
        total_bytes = int(total_bytes)
        if total_bytes < 1:
            raise BlinkMLError(f"cache budget must be >= 1 byte, got {total_bytes}")
        self._diff_cache.resize(
            max_bytes=max(1, int(total_bytes * self.CACHE_BUDGET_SPLIT["diff"]))
        )
        self._model_cache.resize(
            max_bytes=max(1, int(total_bytes * self.CACHE_BUDGET_SPLIT["model"]))
        )
        self._size_cache.resize(
            max_bytes=max(1, int(total_bytes * self.CACHE_BUDGET_SPLIT["size"]))
        )

    @property
    def last_used_at(self) -> float:
        """Monotonic-clock timestamp of the last served request."""
        return self._last_used_at

    @property
    def idle_seconds(self) -> float:
        """Seconds since this session last served a request."""
        return time.monotonic() - self._last_used_at

    def _touch(self) -> None:
        self._last_used_at = time.monotonic()

    # ------------------------------------------------------------------
    # Session-owned state
    # ------------------------------------------------------------------
    @property
    def initial_model(self) -> TrainedModel:
        return self._initial_model

    @property
    def initial_sample_size(self) -> int:
        return self._n0

    @property
    def full_size(self) -> int:
        return self._N

    @property
    def statistics(self) -> ModelStatistics:
        return self._statistics

    @property
    def parameter_sampler(self) -> ParameterSampler:
        return self._parameter_sampler

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------
    def size_cached(self, contract: ApproximationContract) -> bool:
        """Whether ``contract``'s (ε, δ) size search is in the size cache.

        A peek at the in-memory cache: it moves no hit/miss counter and no
        recency, and never probes the warm tier.  A ``train_to`` for a
        contract it reports is a repeat that runs no size search; the
        coalescing tier reads it to decide whether a request can gain from
        a batching window.
        """
        return (contract.epsilon, contract.delta) in self._size_cache

    def cache_stats(self) -> dict[str, CacheStats]:
        """Hit/miss/eviction snapshots of the three session caches."""
        return {
            "diff": self._diff_cache.stats(),
            "model": self._model_cache.stats(),
            "size": self._size_cache.stats(),
        }

    # ------------------------------------------------------------------
    # Warm tier: cross-process persistent artifacts beneath the LRUs
    # ------------------------------------------------------------------
    @property
    def warm_cache(self) -> WarmCacheTier | None:
        """The cross-process warm tier, or ``None`` when disabled."""
        return self._warm_cache

    def _warm_draws_digest(self, tags: tuple[str, ...]) -> str:
        """Digest of the sampler's frozen base-draw blocks for ``tags``.

        Folding the *actual draws* into warm keys is what makes equal keys
        imply bitwise-identical Monte-Carlo inputs: the blocks bake in both
        the H/J statistics and the RNG seed.  Materialising them here (the
        probe path) rather than inside the compute keeps RNG consumption
        identical whether the entry hits or misses — blocks are per-tag
        frozen caches, so the later compute reuses these exact draws.
        """
        blocks = [
            self._parameter_sampler.base_samples(self._n_parameter_samples, tag=tag)
            for tag in tags
        ]
        return array_digest(*blocks)

    def _warm_diff_key(self, key: Hashable) -> str:
        """Warm-tier key for a diff-cache key ``(θ-digest, n, N)``."""
        theta_digest_bytes, n, N = cast("tuple[bytes, int, int]", key)
        return diff_entry_key(
            spec_digest=self._spec_digest,
            holdout_digest=self.holdout.content_digest(),
            draws_digest=self._warm_draws_digest(("accuracy",)),
            theta_digest=theta_digest_bytes.hex(),
            n=n,
            N=N,
            k=self._n_parameter_samples,
        )

    def _warm_size_key(self, key: Hashable) -> str:
        """Warm-tier key for a size-cache key ``(ε, δ)``."""
        epsilon, delta = cast("tuple[float, float]", key)
        return size_entry_key(
            spec_digest=self._spec_digest,
            holdout_digest=self.holdout.content_digest(),
            draws_digest=self._warm_draws_digest(("stage-one", "stage-two")),
            theta_digest=self._theta_digest(self._initial_model.theta).hex(),
            n0=self._n0,
            N=self._N,
            k=self._n_parameter_samples,
            probe_batch=self._probe_batch,
            epsilon=epsilon,
            delta=delta,
        )

    def _warm_model_key(self, key: Hashable) -> str:
        """Warm-tier key for a model-cache key ``n``: every input of its fit.

        Reading the permutation digest builds the nested sampler's
        permutation when no sample has yet (after a refresh), on the probe
        path like the draws digest, so a hit and a refit consume the
        generator alike.
        """
        return model_entry_key(
            spec_digest=self._spec_digest,
            train_digest=self.train_data.content_digest(),
            permutation_digest=self._data_sampler.permutation_digest(),
            theta0_digest=self._theta_digest(self._initial_model.theta).hex(),
            n=cast(int, key),
        )

    def _differences_from_payload(
        self, payload: dict[str, np.ndarray]
    ) -> np.ndarray | None:
        """A warm diff entry's vector; ``None`` unless float64 of length k."""
        vector = payload.get("differences")
        if (
            vector is None
            or vector.dtype != np.float64
            or vector.shape != (self._n_parameter_samples,)
        ):
            return None
        return vector

    def _initial_fit(self, initial_data: Dataset) -> TrainedModel:
        """m_0 on D0: the warm entry when the tier holds one, else the fit.

        The entry is a model entry like m_n's, keyed on every input of the
        fit, with ``spec.initial_parameters(D0)`` as the start.  Without a
        tier no digest is computed: a cold session pays for the fit only.
        """
        tier = self._warm_cache
        if tier is None:
            return self.spec.fit(initial_data)
        theta0 = self.spec.initial_parameters(initial_data)
        entry_key = model_entry_key(
            spec_digest=self._spec_digest,
            train_digest=self.train_data.content_digest(),
            permutation_digest=self._data_sampler.permutation_digest(),
            theta0_digest=self._theta_digest(theta0).hex(),
            n=self._n0,
        )
        payload = tier.get(MODEL_KIND, entry_key)
        model = None if payload is None else self._model_from_payload(payload, theta0.shape)
        if model is None:
            model = self.spec.fit(initial_data, theta0=theta0)
            payload = _model_payload(model)
            if payload is not None:
                tier.put(MODEL_KIND, entry_key, payload)
        return model

    def _model_from_payload(
        self, payload: dict[str, np.ndarray], theta_shape: tuple[int, ...]
    ) -> TrainedModel | None:
        """Rebuild a model from a warm entry; ``None`` when malformed (it refits).

        θ must be float64 of ``theta_shape``, the session's parameter
        dimension; the optimizer record comes back field by field, so a hit
        equals the fit it replaces.
        """
        try:
            theta = payload["theta"]
            history = payload["loss_history"]
            if (
                theta.dtype != np.float64
                or theta.shape != theta_shape
                or history.dtype != np.float64
                or history.ndim != 1
            ):
                return None
            optimization = OptimizationResult(
                theta=theta,
                converged=bool(_payload_scalar(payload, "converged")),
                n_iterations=int(_payload_scalar(payload, "n_iterations")),
                final_value=float(_payload_scalar(payload, "final_value")),
                gradient_norm=float(_payload_scalar(payload, "gradient_norm")),
                n_function_evaluations=int(
                    _payload_scalar(payload, "n_function_evaluations")
                ),
                loss_history=history.tolist(),
            )
            n_train = int(_payload_scalar(payload, "n_train"))
        except (KeyError, TypeError, ValueError):
            return None
        return TrainedModel(
            spec=self.spec, theta=theta, n_train=n_train, optimization=optimization
        )

    # ------------------------------------------------------------------
    # Cached difference vectors and contract answers
    # ------------------------------------------------------------------
    @staticmethod
    def _theta_digest(theta: np.ndarray) -> bytes:
        payload = np.ascontiguousarray(theta, dtype=np.float64).tobytes()
        return hashlib.blake2b(payload, digest_size=16).digest()

    def _sorted_differences(self, theta: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
        """The cached ascending difference vector plus the hit/miss fact.

        The boolean is the *per-call* answer from the cache's single-flight
        compute (True = this call ran zero streamed GEMMs), never inferred
        from the shared counters, which other threads advance concurrently.
        """
        n = int(n)
        if n >= self._N:
            # The "approximate" model is the full model: the difference
            # vector is identically zero for every such n, so short-circuit
            # with one shared read-only vector instead of polluting the
            # cache with an entry per distinct n.
            return self._full_data_differences, True
        key = (self._theta_digest(theta), n, self._N)
        with pass_scope("accuracy", session=self._session_label):
            return self._diff_cache.get_or_compute(
                key,
                lambda: freeze(
                    self._accuracy_estimator.sorted_differences(
                        theta, n, self._N, self._parameter_sampler
                    )
                ),
            )

    def sorted_differences(self, theta: np.ndarray, n: int) -> np.ndarray:
        """The ascending sampled-difference vector for (θ, n, N), cached.

        First call per key evaluates the k streamed model diffs (exactly
        once, even under concurrent requests for the same key); every later
        call — any δ, any ε — is a cache lookup returning the same
        read-only array.
        """
        self._touch()
        return self._sorted_differences(theta, n)[0]

    def _accuracy_estimate(
        self, theta: np.ndarray, n: int, delta: float
    ) -> tuple[AccuracyEstimate, bool]:
        validate_delta(delta)
        self._touch()
        start = time.perf_counter()
        n = int(n)
        differences, from_cache = self._sorted_differences(theta, n)
        if n >= self._N:
            epsilon = 0.0
        else:
            epsilon = conservative_upper_bound(differences, delta, assume_sorted=True)
        estimate = AccuracyEstimate(
            epsilon=float(epsilon),
            delta=delta,
            sampled_differences=differences,
            estimation_seconds=time.perf_counter() - start,
        )
        return estimate, from_cache

    def accuracy_estimate(
        self, theta: np.ndarray, n: int, delta: float = DELTA
    ) -> AccuracyEstimate:
        """Accuracy estimate for any (θ, n) — quantile lookup when cached."""
        return self._accuracy_estimate(theta, n, delta)[0]

    def answer(self, contract: ApproximationContract) -> SessionAnswer:
        """Does the session's initial model satisfy ``contract``?

        After the first contract (any ε, δ) the answer involves zero model
        evaluations: the cached sorted vector plus one quantile lookup.
        Safe to call from a thread pool; concurrent first requests for the
        same vector trigger exactly one computation (single-flight) and the
        waiting callers report ``from_cache=True``.
        """
        with self._standing_contracts_lock:
            self._standing_contracts[contract] = None
        with get_tracer().span(
            "session.answer",
            session=self._session_label,
            epsilon=contract.epsilon,
            delta=contract.delta,
        ) as span:
            estimate, from_cache = self._accuracy_estimate(
                self.initial_model.theta, self._n0, contract.delta
            )
        _ANSWER_SECONDS.observe(span.duration, session=self._session_label)
        return SessionAnswer(
            contract=contract,
            satisfied=estimate.epsilon <= contract.epsilon or self._n0 >= self._N,
            estimate=estimate,
            from_cache=from_cache,
        )

    def answer_many(
        self, contracts: "Sequence[ApproximationContract]"
    ) -> tuple[SessionAnswer, ...]:
        """Answer a batch of contracts, in order, against the initial model.

        Every answer keys the same (θ_0, n_0, N) difference vector, so a
        batch of B contracts costs at most one streamed evaluation no
        matter how many distinct (ε, δ) pairs it mixes — the first miss
        computes the vector, every other member is a quantile lookup.
        Order-independent and bitwise identical to B serial
        :meth:`answer` calls (it *is* B serial calls; the method exists so
        the coalescing batcher has a single dispatch surface).
        """
        return tuple(self.answer(contract) for contract in contracts)

    # ------------------------------------------------------------------
    # Data growth
    # ------------------------------------------------------------------
    def refresh(self) -> SessionRefresh:
        """Adopt appended train/holdout data and re-answer standing contracts.

        The serving path for continuously arriving data: after a writer
        appends shards to a store this session reads
        (:meth:`~repro.data.store.ShardStore.append_shards`), ``refresh()``
        reloads the manifests, folds the new shards' statistics summaries
        into the session's :class:`ModelStatistics` (when
        ``statistics_scope="train"`` — the per-shard sidecar index makes
        this O(new shards), and the merged result is bitwise identical to a
        cold rebuild over the grown store), invalidates every cache whose
        contents depended on the grown data, and re-answers each standing
        contract.  In-memory datasets have no reload surface and report
        unchanged.  Serialized: concurrent refreshes run one at a time.
        """
        with self._refresh_lock:
            self._generation += 1
            train_rows_before = self._N
            holdout_rows_before = self.holdout.n_rows

            reload_train = getattr(self.train_data, "reload", None)
            train_changed = bool(reload_train()) if callable(reload_train) else False
            reload_holdout = getattr(self.holdout, "reload", None)
            holdout_changed = (
                bool(reload_holdout()) if callable(reload_holdout) else False
            )

            statistics_recomputed = False
            reused = computed = 0
            if train_changed:
                self._N = self.train_data.n_rows
                # Fresh nested sampling over the grown index space; trained
                # models / difference vectors / size searches all baked the
                # old N into their keys or contents, so they go wholesale.
                self._data_sampler = UniformSampler(self.train_data, rng=self._rng)
                self._diff_cache.clear()
                self._model_cache.clear()
                self._size_cache.clear()
                if self.statistics_scope == "train":
                    self._statistics = self._compute_scope_statistics(
                        self._initial_model.theta, None
                    )
                    self._parameter_sampler = ParameterSampler(
                        self._statistics, rng=self._rng
                    )
                    statistics_recomputed = True
                    reused = self._statistics.reused_shard_summaries
                    computed = self._statistics.computed_shard_summaries
            if holdout_changed and not train_changed:
                # The estimators hold the (mutated in place) holdout, so
                # only the cached evaluation products need invalidating.
                self._diff_cache.clear()
                self._size_cache.clear()

            reanswered: tuple[SessionAnswer, ...] = ()
            if train_changed or holdout_changed:
                with self._standing_contracts_lock:
                    contracts = list(self._standing_contracts)
                reanswered = tuple(self.answer(contract) for contract in contracts)

            return SessionRefresh(
                train_rows_before=train_rows_before,
                train_rows_after=self._N,
                holdout_rows_before=holdout_rows_before,
                holdout_rows_after=self.holdout.n_rows,
                train_changed=train_changed,
                holdout_changed=holdout_changed,
                statistics_recomputed=statistics_recomputed,
                reused_shard_summaries=reused,
                computed_shard_summaries=computed,
                reanswered=reanswered,
            )

    # ------------------------------------------------------------------
    # Full workflow per contract
    # ------------------------------------------------------------------
    def _train_cached(self, n: int) -> tuple[TrainedModel, float, bool]:
        """Train (or reuse) m_n, warm-started from m_0; returns seconds + hit flag.

        Single-flight: two contracts landing concurrently on the same n
        train one model between them.  n0 is pinned to the initial model so
        an eviction can never force a retrain that would drift from m_0.
        """
        n = int(n)
        if n == self._n0:
            return self._initial_model, 0.0, True
        elapsed_holder: list[float] = []

        def train() -> TrainedModel:
            start = time.perf_counter()
            data = self._data_sampler.nested_sample(n)
            model = self.spec.fit(data, theta0=self._initial_model.theta)
            elapsed_holder.append(time.perf_counter() - start)
            return model

        model, hit = self._model_cache.get_or_compute(n, train)
        return model, (elapsed_holder[0] if elapsed_holder else 0.0), hit

    def _claim_construction_timings(self) -> TimingBreakdown:
        """A fresh timing record, carrying the one-time construction costs at most once.

        The session-construction costs (initial training, statistics) are
        claimed by exactly one result per session — race-free under
        concurrent ``train_to`` — so aggregating timings across contracts
        never double-counts the amortised work.
        """
        timings = TimingBreakdown()
        with self._construction_costs_lock:
            report_construction = not self._construction_costs_reported
            self._construction_costs_reported = True
        if report_construction:
            timings.initial_training_seconds = self._initial_training_seconds
            timings.statistics_seconds = self._statistics.computation_seconds
        return timings

    def _initial_model_result(
        self,
        contract: ApproximationContract,
        answer: SessionAnswer,
        timings: TimingBreakdown,
        metadata: dict,
    ) -> ApproximateTrainingResult:
        """The early-return result when m_0 already satisfies the contract."""
        return ApproximateTrainingResult(
            model=self.initial_model,
            contract=contract,
            estimated_epsilon=answer.estimate.epsilon,
            sample_size=self._n0,
            initial_sample_size=self._n0,
            full_size=self._N,
            used_initial_model=True,
            estimated_minimum_sample_size=self._n0,
            timings=timings,
            metadata=metadata,
        )

    def train_to(
        self,
        contract: ApproximationContract,
        *,
        recompute_at_theta_n: bool = False,
    ) -> ApproximateTrainingResult:
        """Train an approximate model satisfying ``contract`` (Section 2.3).

        The Section 2.3 workflow, with every contract-independent quantity
        served from the session: statistics and the initial model are never
        recomputed, difference vectors are cached per (θ, n, N), and final
        models are cached per sample size.

        ``recompute_at_theta_n=True`` re-evaluates the H/J statistics at the
        *final* model's θ_n (the paper reuses the θ_0 statistics for
        efficiency) and reports the bound those tighter statistics yield as
        ``estimated_epsilon``; the result metadata records both bounds and
        their difference (``bound_tightening``).  The extra cost is one
        streamed statistics pass plus one fresh difference-vector sample —
        skipped automatically when the initial model already satisfies the
        contract or the search fell back to the full data (ε = 0 either way).

        The one-contract case of :meth:`train_to_many`.
        """
        return self.train_to_many(
            [contract], recompute_at_theta_n=recompute_at_theta_n
        ).results[0]

    def _complete_with_size(
        self,
        contract: ApproximationContract,
        size_estimate: SampleSizeEstimate,
        size_cache_hit: bool,
        timings: TimingBreakdown,
        metadata: dict,
        recompute_at_theta_n: bool,
    ) -> ApproximateTrainingResult:
        """Steps 4+ of the workflow for one contract with a resolved size."""
        if not size_cache_hit:
            timings.sample_size_search_seconds = size_estimate.estimation_seconds
        final_n = size_estimate.sample_size

        # Step 4: train m_n on a size-n sample (superset of D0), warm-started
        # from m_0, unless an earlier contract (or, through the warm tier,
        # an earlier process) already landed on the same n.
        final_model, training_seconds, model_cache_hit = self._train_cached(final_n)
        timings.final_training_seconds = training_seconds

        # Accuracy estimate of the final model (statistics recomputed at θ_n
        # would be more faithful but the paper reuses the initial-model
        # statistics for efficiency; we follow the cheaper route and expose
        # the re-estimated bound).
        final_estimate = self.accuracy_estimate(
            final_model.theta, final_n, contract.delta
        )
        timings.accuracy_estimation_seconds += final_estimate.estimation_seconds
        estimated_epsilon = final_estimate.epsilon

        if recompute_at_theta_n and final_n < self._N:
            stats_start = time.perf_counter()
            if self.statistics_scope == "train":
                stats_source: Dataset | ShardedDataset = self.train_data
            else:
                stats_source = self._data_sampler.nested_sample(final_n)
            # persist=False: publishing θ_n sidecars would garbage-collect
            # the θ_0 sidecars every later bootstrap of this store reuses.
            with pass_scope("statistics", session=self._session_label):
                stats_n = compute_statistics(
                    self.spec,
                    final_model.theta,
                    stats_source,
                    method=self.statistics_method,
                    streaming=self._streaming,
                    persist=False,
                )
            seed = int.from_bytes(self._theta_digest(final_model.theta)[:8], "little")
            sampler_n = ParameterSampler(stats_n, rng=np.random.default_rng(seed))
            # Bypasses the diff cache deliberately: its key is (θ, n, N),
            # which cannot distinguish a θ_0-statistics vector from this
            # θ_n-statistics one.
            with pass_scope("accuracy", session=self._session_label):
                differences_n = self._accuracy_estimator.sorted_differences(
                    final_model.theta, final_n, self._N, sampler_n, tag="theta_n"
                )
            epsilon_n = float(
                conservative_upper_bound(
                    differences_n, contract.delta, assume_sorted=True
                )
            )
            timings.statistics_seconds += time.perf_counter() - stats_start
            metadata.update(
                {
                    "recomputed_at_theta_n": True,
                    "epsilon_theta0_stats": float(final_estimate.epsilon),
                    "epsilon_theta_n_stats": epsilon_n,
                    "bound_tightening": float(final_estimate.epsilon) - epsilon_n,
                }
            )
            estimated_epsilon = epsilon_n

        metadata.update(
            {
                "size_search_feasible": size_estimate.feasible,
                "size_search_probes": size_estimate.probed_sizes,
                # Satellite contract: an infeasible search must fall back to
                # the full data and say so in the result metadata.
                "trained_on_full_data": final_n >= self._N,
                "model_cache_hit": model_cache_hit,
            }
        )
        return ApproximateTrainingResult(
            model=final_model,
            contract=contract,
            estimated_epsilon=estimated_epsilon,
            sample_size=final_n,
            initial_sample_size=self._n0,
            full_size=self._N,
            used_initial_model=False,
            estimated_minimum_sample_size=final_n,
            timings=timings,
            metadata=metadata,
        )

    def train_to_many(
        self,
        contracts: Sequence[ApproximationContract],
        *,
        recompute_at_theta_n: bool = False,
    ) -> CoalescedTrainOutcome:
        """Serve a batch of contracts with their size searches fused.

        The workflow of :meth:`train_to` for a batch: answers are computed
        first (one shared difference vector), then the *distinct,
        unsatisfied, not-yet-cached* contracts run one fused lockstep search
        (:meth:`~repro.core.sample_size.SampleSizeEstimator.estimate_many`)
        — every active search contributes its round's candidates to a
        single streamed union pass — and finally each request completes
        steps 4+ (model training, final estimate, metadata), in input order.

        Results are bitwise identical to calling :meth:`train_to` once per
        contract: the fused search evaluates each candidate as its own
        segment (identical GEMM shapes and block order to a lone
        evaluation), the sampler's cached base draws make Monte-Carlo
        vectors order-independent, and duplicated contracts resolve through
        the same single-flight size cache a repeat call would hit.  One
        exception is timing metadata: coalesced members report the shared
        fused search wall-clock as their search cost.

        The returned :class:`CoalescedTrainOutcome` carries the exact
        fused/serial pass accounting (zero/zero when nothing needed a
        search); ``results`` is ordered like ``contracts``.
        """
        contracts = list(contracts)
        if not contracts:
            return CoalescedTrainOutcome(
                results=(), fused_search_passes=0, serial_search_passes=0
            )
        self._touch()
        with get_tracer().span(
            "session.train_to_many",
            session=self._session_label,
            contracts=len(contracts),
        ) as span:
            requests = []
            for contract in contracts:
                timings = self._claim_construction_timings()
                answer = self.answer(contract)
                timings.accuracy_estimation_seconds += (
                    answer.estimate.estimation_seconds
                )
                requests.append((contract, answer, timings))

            # The fused search set: distinct (ε, δ) pairs whose answer was
            # unsatisfied, in arrival order.  Pairs already size-cached are
            # filtered inside the runner (membership is checked without
            # touching the hit/miss counters, so accounting matches serial).
            needing: list[ApproximationContract] = []
            seen: set[tuple[float, float]] = set()
            for contract, answer, _ in requests:
                key = (contract.epsilon, contract.delta)
                if not answer.satisfied and key not in seen:
                    seen.add(key)
                    needing.append(contract)

            fused_passes = 0
            serial_passes = 0
            resolved: dict[tuple[float, float], SampleSizeEstimate] = {}
            cache_hits: dict[tuple[float, float], bool] = {}

            # Step 3: smallest n per contract.  The answers above already
            # rejected n0, so the search skips re-probing it.  A search
            # depends only on (ε, δ), so repeats are served from the size
            # cache, and single-flight makes concurrent callers asking for
            # the same pair run one search between them.
            for contract in needing:
                size_key = (contract.epsilon, contract.delta)

                def run_fused(
                    pivot: ApproximationContract = contract,
                ) -> SampleSizeEstimate:
                    nonlocal fused_passes, serial_passes
                    pivot_key = (pivot.epsilon, pivot.delta)
                    if pivot_key in resolved:
                        # An earlier leader's fused batch already covered
                        # this pair; hand its estimate to the cache.
                        return resolved[pivot_key]
                    batch = [
                        candidate
                        for candidate in needing
                        if (candidate.epsilon, candidate.delta) == pivot_key
                        or (
                            (candidate.epsilon, candidate.delta) not in resolved
                            and not self.size_cached(candidate)
                        )
                    ]
                    with pass_scope("size-search", session=self._session_label):
                        search = self._size_estimator.estimate_many(
                            self.initial_model.theta,
                            n0=self._n0,
                            N=self._N,
                            contracts=batch,
                            statistics=self._statistics,
                            sampler=self._parameter_sampler,
                            skip_lower_probe=True,
                            probe_batch=self._probe_batch,
                        )
                    fused_passes += search.fused_passes
                    serial_passes += search.serial_passes
                    for member, estimate in zip(batch, search.estimates):
                        resolved[(member.epsilon, member.delta)] = estimate
                    return resolved[pivot_key]

                estimate, hit = self._size_cache.get_or_compute(size_key, run_fused)
                resolved[size_key] = estimate
                cache_hits[size_key] = hit

            results = []
            for contract, answer, timings in requests:
                metadata = {"statistics_method": self.statistics_method.value}
                if answer.satisfied:
                    results.append(
                        self._initial_model_result(
                            contract, answer, timings, metadata
                        )
                    )
                    continue
                size_key = (contract.epsilon, contract.delta)
                results.append(
                    self._complete_with_size(
                        contract,
                        resolved[size_key],
                        cache_hits[size_key],
                        timings,
                        metadata,
                        recompute_at_theta_n,
                    )
                )
            outcome = CoalescedTrainOutcome(
                results=tuple(results),
                fused_search_passes=fused_passes,
                serial_search_passes=serial_passes,
            )
            span.set_attribute("fused_passes", fused_passes)
            span.set_attribute("serial_passes", serial_passes)
        _TRAIN_SECONDS.observe(span.duration, session=self._session_label)
        return outcome


def _payload_scalar(payload: dict[str, np.ndarray], name: str) -> Any:
    """One 0-d member of a warm payload (``ValueError`` when misshapen)."""
    value = payload[name]
    if value.shape != ():
        raise ValueError(f"warm payload field {name!r} is not scalar")
    return value[()]


def _size_estimate_payload(estimate: SampleSizeEstimate) -> dict[str, np.ndarray]:
    """Deterministic array payload for a size-search outcome.

    ``estimation_seconds`` is stored as 0.0: warm entries are
    content-addressed, and racing processes must publish byte-identical
    files for last-writer-wins to be benign — wall-clock timing is the one
    field that would differ between otherwise identical searches.
    """
    return {
        "sample_size": np.array(estimate.sample_size, dtype=np.int64),
        "feasible": np.array(estimate.feasible, dtype=np.bool_),
        "n_probability_evaluations": np.array(
            estimate.n_probability_evaluations, dtype=np.int64
        ),
        "probed_sizes": np.asarray(estimate.probed_sizes, dtype=np.int64),
        "estimation_seconds": np.array(0.0, dtype=np.float64),
    }


def _size_estimate_from_payload(
    payload: dict[str, np.ndarray],
) -> SampleSizeEstimate | None:
    """Rebuild a size estimate from a warm entry; ``None`` when malformed.

    Any missing or misshapen member degrades to ``None`` — the caller then
    treats the entry as a miss and simply reruns the search.
    """
    try:
        return SampleSizeEstimate(
            sample_size=int(_payload_scalar(payload, "sample_size")),
            feasible=bool(_payload_scalar(payload, "feasible")),
            n_probability_evaluations=int(
                _payload_scalar(payload, "n_probability_evaluations")
            ),
            probed_sizes=tuple(
                int(size) for size in np.ravel(payload["probed_sizes"])
            ),
            estimation_seconds=float(_payload_scalar(payload, "estimation_seconds")),
        )
    except (KeyError, TypeError, ValueError):
        return None


def _model_payload(model: TrainedModel) -> dict[str, np.ndarray] | None:
    """Deterministic array payload for m_n: θ, n and the optimizer record.

    ``None`` keeps the model process-local: without an optimizer record a
    hit could not equal the refit field by field.
    """
    result = model.optimization
    if result is None:
        return None
    return {
        "theta": np.asarray(model.theta, dtype=np.float64),
        "n_train": np.array(model.n_train, dtype=np.int64),
        "converged": np.array(result.converged, dtype=np.bool_),
        "n_iterations": np.array(result.n_iterations, dtype=np.int64),
        "final_value": np.array(result.final_value, dtype=np.float64),
        "gradient_norm": np.array(result.gradient_norm, dtype=np.float64),
        "n_function_evaluations": np.array(
            result.n_function_evaluations, dtype=np.int64
        ),
        "loss_history": np.asarray(result.loss_history, dtype=np.float64),
    }


class _WarmAdapter:
    """Second-tier hook mapping one session cache's keys onto warm entries.

    Installed as an LRU cache's ``warm_tier``: an in-memory miss probes the
    persistent tier before computing, and a fresh compute is written
    behind.  ``entry_key`` maps a cache key to the entry's key string,
    ``encode`` turns a value into its array payload (``None`` keeps it
    process-local) and ``decode`` rebuilds it, returning ``None`` for a
    malformed payload — a foreign or truncated entry degrades to a
    recompute, never a wrong answer.  Loaded arrays arrive frozen, honouring
    the session caches' read-only invariant.

    The entry key is built once per miss, in :meth:`load`, and reused by
    :meth:`store`; the cache calls both, and the compute between them, on
    the computing thread, so a thread-local slot carries it.  ``store``
    publishes only while ``generation()`` still reads what it read at the
    probe: a value computed across a session refresh is kept in memory but
    never published under a key built from either side of it.
    """

    __slots__ = (
        "_tier", "_kind", "_entry_key", "_encode", "_decode", "_generation", "_probe"
    )

    def __init__(
        self,
        tier: WarmCacheTier,
        kind: str,
        entry_key: Callable[[Hashable], str],
        encode: Callable[[Any], dict[str, np.ndarray] | None],
        decode: Callable[[dict[str, np.ndarray]], Any | None],
        generation: Callable[[], int],
    ) -> None:
        self._tier = tier
        self._kind = kind
        self._entry_key = entry_key
        self._encode = encode
        self._decode = decode
        self._generation = generation
        self._probe = threading.local()

    def load(self, key: Hashable) -> Any | None:
        generation = self._generation()
        entry_key = self._entry_key(key)
        self._probe.last = (key, generation, entry_key)
        payload = self._tier.get(self._kind, entry_key)
        return None if payload is None else self._decode(payload)

    def store(self, key: Hashable, value: Any) -> None:
        probed_key, generation, entry_key = self._probe.last
        if probed_key != key or generation != self._generation():
            return
        payload = self._encode(value)
        if payload is not None:
            self._tier.put(self._kind, entry_key, payload)
