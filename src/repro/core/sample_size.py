"""Sample Size Estimator (Section 4).

Given only the *initial* model m_0 (trained on n0 rows), the estimator finds
the smallest sample size n such that a model trained on n rows would satisfy
the approximation contract — without training any additional model.

For a candidate n the probability ``Pr[v(m_n, m_N) ≤ ε]`` is estimated via
the two-stage sampling of Section 4.1 (θ_n | θ_0, then θ_N | θ_n) and the
conservative correction of Lemma 2.  Theorem 2 shows this probability is
increasing in n, which justifies the bracketing search of Section 4.2.

Implementation-level optimisations on top of the paper's search:

* the per-candidate pairwise diffs run through the streaming sharded
  holdout engine (:mod:`repro.evaluation.streaming`), so memory stays
  O(k · block) regardless of holdout size;
* with ``probe_batch > 1`` each search round evaluates several candidate
  sizes in a *single stacked pass* — the two-stage draws of all candidates
  share the same cached base samples (sampling-by-scaling), so stacking
  them into one ``(batch · k)``-candidate diff evaluation amortises the
  per-pass overhead and cuts the number of passes from log₂ to
  log_{batch+1} of the search range;
* the per-round batch is **adaptive** (:func:`adaptive_probe_count`):
  ``probe_batch`` is a ceiling, and each round stacks only as many
  candidates as still pay for themselves given the current bracket width —
  a bracket the full batch would over-resolve gets a smaller stack with
  the *same* number of passes, so tiny brackets stop paying for
  Monte-Carlo evaluations that cannot narrow them further;
* several contracts search in **lockstep**
  (:meth:`SampleSizeEstimator.estimate_many`), sharing each round;
  a single contract's search (:meth:`SampleSizeEstimator.estimate`) is
  the one-member case of the same loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.config import NUM_PARAMETER_SAMPLES
from repro.core.contract import ApproximationContract
from repro.core.guarantees import satisfies_probability_threshold
from repro.core.parameter_sampler import ParameterSampler
from repro.core.statistics import ModelStatistics
from repro.data.dataset import Dataset
from repro.evaluation.streaming import (
    StreamingConfig,
    streaming_fanout_pairwise_prediction_differences,
)
from repro.exceptions import SampleSizeError
from repro.models.base import ModelClassSpec
from repro.obs import get_metrics, get_tracer

# Size-search round economics (repro.obs): rounds plus the passes-saved
# counter reproduce the coalescing tier's round accounting at scrape time.
# A round streams the holdout once for LR, ME and Poisson; the PPCA and Lin
# diffs never stream (Lin's come from the holdout factor).
_SEARCH_ROUNDS = get_metrics().counter(
    "repro_size_search_rounds_total",
    "Size-search evaluation rounds executed (one streamed holdout pass per "
    "round for LR, ME and Poisson; none for PPCA and Lin).",
)
_SEARCHES_TOTAL = get_metrics().counter(
    "repro_size_search_searches_total",
    "Completed size searches (a fused search counts each member contract).",
)
_PASSES_SAVED_TOTAL = get_metrics().counter(
    "repro_size_search_passes_saved_total",
    "Size-search rounds fused lockstep searches avoided versus running the "
    "same contracts serially (exact accounting).",
)


@dataclass(frozen=True)
class SampleSizeEstimate:
    """Outcome of the minimum-sample-size search.

    Attributes
    ----------
    sample_size:
        The estimated minimum n.
    feasible:
        False when even n = N did not certify the contract through the
        Monte-Carlo check (the coordinator then trains on the full data).
    n_probability_evaluations:
        How many candidate sizes were Monte-Carlo-evaluated in total (with
        ``probe_batch > 1`` several of these happen per stacked pass).
    probed_sizes:
        The candidate n values actually Monte-Carlo-evaluated, in order
        (diagnostics).  With ``skip_lower_probe`` the lower endpoint ``n0``
        is never evaluated and therefore never appears here.
    estimation_seconds:
        Wall-clock cost of the search.
    """

    sample_size: int
    feasible: bool
    n_probability_evaluations: int
    probed_sizes: tuple[int, ...] = field(default_factory=tuple)
    estimation_seconds: float = 0.0


@dataclass(frozen=True)
class FusedSizeSearch:
    """Outcome of one fused multi-contract search (:meth:`SampleSizeEstimator.estimate_many`).

    Attributes
    ----------
    estimates:
        One :class:`SampleSizeEstimate` per input contract, in input order.
        Each is bitwise identical to what :meth:`SampleSizeEstimator.estimate`
        returns for that contract alone, except ``estimation_seconds``,
        which reports the *shared* fused wall-clock for every member.
    fused_passes:
        Evaluation rounds the fused search actually executed, each carrying
        the union of that round's candidates across all active searches.
        The field counts rounds, not holdout passes: a round streams the
        holdout once for LR, ME and Poisson, and the PPCA and Lin diffs
        never stream (Lin's come from the memoised holdout factor,
        :func:`~repro.evaluation.streaming.holdout_factor`).
    serial_passes:
        Evaluation rounds the same contracts would have cost searched one
        at a time (each search's own round count, summed).  Exact, not
        estimated: every member search follows the identical bracket
        trajectory fused or alone, so its own round count is simply the
        number of fused rounds it contributed candidates to.
    """

    estimates: tuple[SampleSizeEstimate, ...]
    fused_passes: int
    serial_passes: int

    @property
    def passes_saved(self) -> int:
        """Rounds the fusion avoided versus serial execution."""
        return self.serial_passes - self.fused_passes


def adaptive_probe_count(span: int, probe_batch: int) -> int:
    """Candidates to stack this round for a bracket of width ``span``.

    ``probe_batch`` candidates narrow a bracket by a factor of
    ``probe_batch + 1`` per pass, so a bracket of width ``span`` resolves
    in ``r = ceil(log_{probe_batch+1}(span))`` passes.  The full batch is
    only worth stacking while the bracket is wide: once ``span`` is small,
    fewer candidates finish in the *same* ``r`` passes.  This returns the
    smallest per-round count ``b`` with ``(b + 1)^r >= span`` — never more
    passes than the fixed policy, never more stacked Monte-Carlo
    evaluations than the bracket can use.

    Edge cases are explicit rather than emergent from the cap arithmetic:
    a resolved bracket (``span <= 1``) needs no candidates at all; a
    width-2 bracket has exactly one interior point regardless of how large
    ``probe_batch`` is; a ``probe_batch`` of 1 is the classic bisection
    midpoint whatever the width.  ``probe_batch < 1`` is a caller bug and
    raises (the session/coordinator boundary validates it too).

    Examples with ``probe_batch=3``: a width-1024 bracket stacks 3 (5
    passes either way), a width-9 bracket stacks 2 instead of 3 (2 passes
    either way), a width-2 bracket stacks the single useful midpoint.
    """
    if probe_batch < 1:
        raise SampleSizeError(
            f"probe_batch must be at least 1, got {probe_batch}"
        )
    if span <= 1:
        # Bracket already resolved: nothing left to probe.
        return 0
    if span == 2 or probe_batch == 1:
        # A width-2 bracket has exactly one interior point; bisection
        # stacks exactly one midpoint however wide the bracket is.
        return 1
    cap = min(probe_batch, span - 1)
    rounds = 1
    while (cap + 1) ** rounds < span:
        rounds += 1
    count = 1
    while (count + 1) ** rounds < span:
        count += 1
    return min(count, cap)


class SampleSizeEstimator:
    """Finds the smallest n satisfying the contract using only the initial model.

    ``streaming`` configures the sharded holdout evaluation of the pairwise
    diffs (``None`` uses the module default).
    """

    def __init__(
        self,
        spec: ModelClassSpec,
        holdout: Dataset,
        n_parameter_samples: int = NUM_PARAMETER_SAMPLES,
        streaming: StreamingConfig | None = None,
    ):
        if n_parameter_samples < 2:
            raise SampleSizeError("need at least two parameter samples")
        self._spec = spec
        self._holdout = holdout
        self._n_parameter_samples = n_parameter_samples
        self._streaming = streaming

    # ------------------------------------------------------------------
    # Sampled differences for candidate sizes
    # ------------------------------------------------------------------
    def candidate_differences_batch(
        self,
        theta0: np.ndarray,
        n0: int,
        candidate_ns: Sequence[int],
        N: int,
        sampler: ParameterSampler,
    ) -> list[np.ndarray]:
        """Sampled diff vectors for several candidate sizes, one streamed pass.

        The two-stage draws (Section 4.1) for every candidate reuse the same
        cached base samples, so the only per-candidate cost is the rescale;
        each candidate's k parameter pairs then form one *segment* of a
        single fan-out streamed evaluation
        (:func:`~repro.evaluation.streaming.streaming_fanout_pairwise_prediction_differences`).
        Per-candidate segmentation — rather than stacking all candidates
        into one wide GEMM — is what makes results demultiplex bitwise
        identically: every segment runs the same per-block GEMM shapes, in
        the same block order, that a lone single-candidate evaluation would,
        so the vector a candidate gets is independent of which (or whose)
        other candidates shared the pass.  This is the contract the
        request-coalescing tier (:mod:`repro.serving`) is built on.  PPCA's
        and stock Lin's segments need no holdout block, so for them the
        call streams nothing (Lin's diffs come from the holdout factor).
        """
        if not candidate_ns:
            return []
        segments = [
            sampler.two_stage_samples(
                theta0, n0=n0, n=int(candidate), N=N, count=self._n_parameter_samples
            )
            for candidate in candidate_ns
        ]
        return streaming_fanout_pairwise_prediction_differences(
            self._spec, segments, self._holdout, config=self._streaming
        )

    # ------------------------------------------------------------------
    # Bracketing search (Section 4.2, batched probes, fused contracts)
    # ------------------------------------------------------------------
    def estimate(
        self,
        theta0: np.ndarray,
        n0: int,
        N: int,
        contract: ApproximationContract,
        statistics: ModelStatistics,
        sampler: ParameterSampler | None = None,
        skip_lower_probe: bool = False,
        probe_batch: int = 1,
    ) -> SampleSizeEstimate:
        """Search the smallest n in [n0, N] satisfying the contract.

        The one-contract case of :meth:`estimate_many`.

        Parameters
        ----------
        theta0:
            Parameter vector of the initial model m_0.
        n0:
            Size of the initial sample D0.
        N:
            Full training-set size.
        contract:
            The (ε, δ) approximation contract.
        statistics:
            Factored statistics computed at θ_0.
        sampler:
            Optional shared sampler (base draws are cached inside it, so the
            whole search re-uses the same base normal draws — the
            sampling-by-scaling optimisation).
        skip_lower_probe:
            When true, ``n0`` is assumed to fail the contract and is not
            re-probed.  The coordinator sets this because it only reaches
            the search after the accuracy estimator has already rejected
            ``n0``, so the k-sample Monte-Carlo evaluation at the lower
            endpoint would be wasted.  ``probed_sizes`` then starts at the
            upper endpoint ``N`` and never contains ``n0``; if ``n0``
            actually satisfies the contract the search conservatively
            returns a size in ``(n0, N]`` instead of ``n0``.
        probe_batch:
            Ceiling on candidate sizes evaluated per stacked Monte-Carlo
            pass.  1 is the classic bisection (one midpoint per round);
            larger values place up to that many evenly spaced candidates
            inside the bracket and evaluate them in one pass, narrowing
            the bracket by a factor of ``batch + 1`` per round under the
            Theorem 2 monotonicity.  The per-round count adapts to the
            bracket width (:func:`adaptive_probe_count`): narrow brackets
            stack fewer candidates without taking extra passes.
        """
        return self.estimate_many(
            theta0,
            n0,
            N,
            [contract],
            statistics,
            sampler=sampler,
            skip_lower_probe=skip_lower_probe,
            probe_batch=probe_batch,
        ).estimates[0]

    def estimate_many(
        self,
        theta0: np.ndarray,
        n0: int,
        N: int,
        contracts: Sequence[ApproximationContract],
        statistics: ModelStatistics,
        sampler: ParameterSampler | None = None,
        skip_lower_probe: bool = False,
        probe_batch: int = 1,
    ) -> FusedSizeSearch:
        """Run several contracts' searches in lockstep, sharing each round.

        The cross-caller generalisation of ``probe_batch``: where one
        search stacks its own candidates into a round, this stacks one
        *round's* candidates across every active search.  Each member
        search follows exactly the bracket trajectory it would follow alone
        — same endpoint probes, same :func:`adaptive_probe_count` schedule,
        same narrowing decisions — but all searches still active at a given
        round contribute their candidates to one deduplicated union, which
        is evaluated as a single fan-out streamed pass
        (:meth:`candidate_differences_batch`).  Per-candidate segmentation
        makes the demultiplexed outcomes bitwise identical to lone runs,
        so the member estimates (sample size, feasibility, probe schedule)
        are exactly what ``estimate()`` returns for each contract, while
        the round count drops from the sum of the members' round counts to
        the maximum of them.

        Duplicated (ε, δ) contracts in the input are legal and cost nothing
        extra (their candidates always coincide, so the union absorbs
        them); callers that want duplicate *results* shared should dedupe a
        level up (the session's size cache does).  Returns a
        :class:`FusedSizeSearch` with the per-contract estimates in input
        order plus the exact fused/serial round accounting.  Parameters are
        as on :meth:`estimate`.
        """
        if n0 <= 0 or N <= 0:
            raise SampleSizeError("sample sizes must be positive")
        if n0 > N:
            raise SampleSizeError(f"initial sample size {n0} exceeds N={N}")
        if probe_batch < 1:
            raise SampleSizeError(
                f"probe_batch must be at least 1, got {probe_batch}"
            )
        contracts = list(contracts)
        if not contracts:
            return FusedSizeSearch(estimates=(), fused_passes=0, serial_passes=0)
        sampler = sampler or ParameterSampler(statistics)
        start = time.perf_counter()
        searches = [_LockstepSearch(contract) for contract in contracts]
        fused_passes = 0
        serial_passes = 0

        def evaluate(
            active: list[tuple["_LockstepSearch", list[int]]],
        ) -> list[list[bool]]:
            """One fused round: union pass, per-search demultiplexed outcomes."""
            nonlocal fused_passes, serial_passes
            fused_passes += 1
            serial_passes += len(active)
            for search, candidates in active:
                search.probed.extend(candidates)
            union = sorted({c for _, candidates in active for c in candidates})
            differences = self.candidate_differences_batch(
                theta0, n0, union, N, sampler
            )
            index = {candidate: i for i, candidate in enumerate(union)}
            return [
                [
                    satisfies_probability_threshold(
                        differences[index[candidate]],
                        search.contract.epsilon,
                        search.contract.delta,
                    )
                    for candidate in candidates
                ]
                for search, candidates in active
            ]

        with get_tracer().span(
            "size_search.estimate_many",
            contracts=len(contracts),
            n0=n0,
            N=N,
        ) as span:
            # Round 0a (optional): every search probes the lower endpoint n0.
            if not skip_lower_probe:
                active = [(search, [n0]) for search in searches]
                for (search, _), outcomes in zip(active, evaluate(active)):
                    if outcomes[0]:
                        search.finish(n0, True)

            # Round 0b: remaining searches probe the upper endpoint N; a
            # search the full data cannot certify falls back to N, infeasible.
            pending = [search for search in searches if not search.done]
            if pending:
                active = [(search, [N]) for search in pending]
                for (search, _), outcomes in zip(active, evaluate(active)):
                    if not outcomes[0]:
                        search.finish(N, False)
                    else:
                        search.low, search.high = n0, N

            # Bracket rounds in lockstep (invariant: low fails, high
            # satisfies; Theorem 2 makes the narrowing valid, and with
            # probe_batch == 1 each search is exactly the paper's
            # bisection).  Searches drop out as their brackets resolve; the
            # survivors keep sharing one union pass per round.
            while True:
                active = []
                for search in searches:
                    if search.done:
                        continue
                    if search.high - search.low <= 1:
                        search.finish(search.high, True)
                        continue
                    active.append((search, search.candidates(probe_batch)))
                if not active:
                    break
                for (search, candidates), outcomes in zip(active, evaluate(active)):
                    search.narrow(candidates, outcomes)

            elapsed = time.perf_counter() - start
            outcome = FusedSizeSearch(
                estimates=tuple(search.estimate(elapsed) for search in searches),
                fused_passes=fused_passes,
                serial_passes=serial_passes,
            )
            span.set_attribute("fused_passes", outcome.fused_passes)
            span.set_attribute("serial_passes", outcome.serial_passes)
        _SEARCH_ROUNDS.inc(outcome.fused_passes)
        _SEARCHES_TOTAL.inc(len(contracts))
        _PASSES_SAVED_TOTAL.inc(outcome.passes_saved)
        return outcome


class _LockstepSearch:
    """Mutable per-contract state threaded through one fused search."""

    __slots__ = ("contract", "probed", "low", "high", "done", "sample_size", "feasible")

    def __init__(self, contract: ApproximationContract) -> None:
        self.contract = contract
        self.probed: list[int] = []
        self.low = 0
        self.high = 0
        self.done = False
        self.sample_size = 0
        self.feasible = True

    def candidates(self, probe_batch: int) -> list[int]:
        """This round's evenly spaced interior candidates of ``(low, high)``."""
        span = self.high - self.low
        count = adaptive_probe_count(span, probe_batch)
        return sorted({self.low + (span * (j + 1)) // (count + 1) for j in range(count)})

    def narrow(self, candidates: list[int], outcomes: list[bool]) -> None:
        """Shrink the bracket around the first satisfied candidate."""
        first_true = next((i for i, outcome in enumerate(outcomes) if outcome), None)
        if first_true is None:
            self.low = candidates[-1]
        else:
            self.high = candidates[first_true]
            if first_true > 0:
                self.low = candidates[first_true - 1]

    def finish(self, sample_size: int, feasible: bool) -> None:
        self.done = True
        self.sample_size = int(sample_size)
        self.feasible = feasible

    def estimate(self, elapsed: float) -> SampleSizeEstimate:
        return SampleSizeEstimate(
            sample_size=self.sample_size,
            feasible=self.feasible,
            n_probability_evaluations=len(self.probed),
            probed_sizes=tuple(self.probed),
            estimation_seconds=elapsed,
        )
