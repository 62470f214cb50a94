"""The BlinkML coordinator (Section 2.3) — a facade over the session layer.

The coordinator workflow glues the components together:

1. draw an initial sample D0 of size n0 (10 000 by default) from the
   training data and train the initial model m_0;
2. compute the H/J statistics at θ_0 and estimate m_0's accuracy; if it
   already meets the approximation contract, return m_0;
3. otherwise ask the Sample Size Estimator for the smallest n that would
   satisfy the contract — without training any intermediate model;
4. train the final model m_n on a size-n sample (which subsumes D0) and
   return it together with its own accuracy estimate.

At most two models are ever trained, which is where the training-time
savings of Figure 5 come from.

The workflow itself lives in :class:`repro.core.session.EstimationSession`;
:class:`BlinkML` assembles a session per ``train()`` call, so ``train()`` is
deterministic per seed.  The size search returns the smallest n the
Monte-Carlo check accepts: when n lies strictly between n0 + 1 and N,
Lemma 2's check, read from the session's cached base draws, fails at n − 1
and holds at n.  ``probe_batch`` changes only which sizes the search probes
on the way; where the check is monotone in n (Theorem 2), every
``probe_batch`` returns the same n.  Serving deployments hold a session open
and answer many contracts from its caches (see :meth:`BlinkML.session`).
"""

from __future__ import annotations

from repro.config import (
    DELTA,
    INITIAL_SAMPLE_SIZE,
    NUM_PARAMETER_SAMPLES,
    SIZE_SEARCH_PROBE_BATCH,
)
import numpy as np

from repro.core.contract import ApproximationContract
from repro.core.result import ApproximateTrainingResult
from repro.core.session import EstimationSession
from repro.core.statistics import StatisticsMethod
from repro.data.dataset import Dataset
from repro.evaluation.streaming import StreamingConfig
from repro.exceptions import SampleSizeError
from repro.models.base import ModelClassSpec, TrainedModel


class BlinkML:
    """User-facing trainer with an approximation contract.

    Parameters
    ----------
    spec:
        The model class specification to train (Lin, LR, ME, PPCA, or any
        custom :class:`~repro.models.base.ModelClassSpec`).
    initial_sample_size:
        The size n0 of the initial training set D0 (paper default 10 000).
    n_parameter_samples:
        The number k of Monte-Carlo parameter samples used by the accuracy
        and sample-size estimators.
    statistics_method:
        Which of the Section 3.4 strategies to use (ObservedFisher default).
    seed:
        Seed for the sampling of D0/Dn and of the parameter draws.
    streaming:
        Holdout sharding configuration for the streamed diff evaluations
        (``None`` uses the module default block size, serial).
    probe_batch:
        Candidate sample sizes evaluated per stacked sample-size-search
        pass (1 restores the paper's plain bisection).

    Every parameter after ``spec`` is keyword-only.  Every model is fitted
    with the paper's optimizer rule: BFGS below 100 parameters, L-BFGS
    above (Section 5.1).
    """

    def __init__(
        self,
        spec: ModelClassSpec,
        *,
        initial_sample_size: int = INITIAL_SAMPLE_SIZE,
        n_parameter_samples: int = NUM_PARAMETER_SAMPLES,
        statistics_method: StatisticsMethod | str = StatisticsMethod.OBSERVED_FISHER,
        seed: int | None = None,
        streaming: StreamingConfig | None = None,
        probe_batch: int = SIZE_SEARCH_PROBE_BATCH,
    ):
        self.spec = spec
        self.initial_sample_size = int(initial_sample_size)
        self.n_parameter_samples = int(n_parameter_samples)
        self.statistics_method = StatisticsMethod(statistics_method)
        self.streaming = streaming
        self.probe_batch = int(probe_batch)
        if self.probe_batch < 1:
            raise SampleSizeError(
                f"probe_batch must be at least 1, got {self.probe_batch} "
                "(1 = paper bisection; larger values stack candidates per "
                "size-search pass)"
            )
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(self, train: Dataset, holdout: Dataset) -> EstimationSession:
        """Open an estimation session: m_0 + statistics computed once.

        The session answers any number of (ε, δ) contracts against the same
        initial model from its caches; see
        :class:`repro.core.session.EstimationSession`.  Successive sessions
        from one ``BlinkML`` share its random stream (each consumes draws in
        workflow order), so ``train()`` remains seed-reproducible.
        """
        return EstimationSession(
            self.spec,
            train,
            holdout,
            initial_sample_size=self.initial_sample_size,
            n_parameter_samples=self.n_parameter_samples,
            statistics_method=self.statistics_method,
            streaming=self.streaming,
            probe_batch=self.probe_batch,
            rng=self._rng,
        )

    # ------------------------------------------------------------------
    # Training entry points
    # ------------------------------------------------------------------
    def train(
        self,
        train: Dataset,
        holdout: Dataset,
        contract: ApproximationContract,
    ) -> ApproximateTrainingResult:
        """Train an approximate model satisfying ``contract``.

        Each call runs the full one-shot workflow in a fresh session,
        deterministic per seed; ``probe_batch`` changes only which sizes
        the search probes (see the module docstring).  To amortise the
        initial model across contracts, keep the :meth:`session` instead.

        Parameters
        ----------
        train:
            The full training data D (size N).
        holdout:
            Holdout set used only for estimating prediction differences.
        contract:
            The requested (ε, δ) approximation contract.
        """
        return self.session(train, holdout).train_to(contract)

    def train_with_accuracy(
        self,
        train: Dataset,
        holdout: Dataset,
        requested_accuracy: float,
        delta: float = DELTA,
    ) -> ApproximateTrainingResult:
        """Convenience wrapper taking a requested accuracy instead of ε."""
        contract = ApproximationContract.from_accuracy(requested_accuracy, delta=delta)
        return self.train(train, holdout, contract)

    # ------------------------------------------------------------------
    # Reference: full-model training (for benchmarking against BlinkML)
    # ------------------------------------------------------------------
    def train_full(self, train: Dataset) -> TrainedModel:
        """Train the exact full model m_N (what a traditional ML library does)."""
        return self.spec.fit(train)
