"""IncEstimator baseline: grow the sample until the accuracy estimate passes.

Section 5.4: "IncEstimator gradually increased the sample size until the
approximate model trained on that sample satisfied the requested accuracy;
the sample size at the k-th iteration was 1000 · k²."

Unlike FixedRatio and RelativeRatio, IncEstimator adapts to the model and
the request — so it meets the accuracy — but it must *train a model at every
step*, which is why its runtime in Figure 7b dwarfs BlinkML's (BlinkML
estimates the final sample size analytically from the initial model alone).
To judge whether a trained model satisfies the request, IncEstimator uses
the same accuracy-estimation machinery BlinkML does (the alternative — a
held-out comparison against a *full* model — would require training m_N and
defeat the purpose).
"""

from __future__ import annotations

import time

from repro.baselines.base import BaselineRunResult, SampleSizeBaseline
from repro.core.accuracy import ModelAccuracyEstimator
from repro.core.contract import ApproximationContract
from repro.core.statistics import StatisticsMethod, compute_statistics
from repro.data.dataset import Dataset
from repro.data.sampling import UniformSampler
from repro.models.base import ModelClassSpec


class IncrementalEstimatorBaseline(SampleSizeBaseline):
    """Train on 1000·k² rows at step k until the contract is met."""

    policy_name = "inc_estimator"

    def __init__(
        self,
        spec: ModelClassSpec,
        *,
        step_scale: int = 1000,
        n_parameter_samples: int = 64,
        seed: int | None = None,
        statistics_method: StatisticsMethod | str = StatisticsMethod.OBSERVED_FISHER,
    ):
        super().__init__(spec, seed=seed)
        self.step_scale = int(step_scale)
        self.n_parameter_samples = int(n_parameter_samples)
        self.statistics_method = StatisticsMethod(statistics_method)

    def run(
        self,
        train: Dataset,
        holdout: Dataset,
        contract: ApproximationContract,
    ) -> BaselineRunResult:
        sampler = UniformSampler(train, rng=self._rng)
        estimator = ModelAccuracyEstimator(
            self.spec, holdout, n_parameter_samples=self.n_parameter_samples
        )
        N = train.n_rows
        start = time.perf_counter()
        n_models = 0
        step = 0
        model = None
        sample_size = 0
        while True:
            step += 1
            sample_size = min(self.step_scale * step * step, N)
            sample = sampler.nested_sample(sample_size)
            model = self.spec.fit(sample)
            n_models += 1
            if sample_size >= N:
                break
            statistics = compute_statistics(
                self.spec, model.theta, sample, method=self.statistics_method
            )
            estimate = estimator.estimate(
                model.theta,
                n=sample_size,
                N=N,
                delta=contract.delta,
                statistics=statistics,
            )
            if estimate.epsilon <= contract.epsilon:
                break
        elapsed = time.perf_counter() - start
        return BaselineRunResult(
            model=model,
            sample_size=sample_size,
            training_seconds=elapsed,
            n_models_trained=n_models,
            policy=self.policy_name,
            metadata={"steps": step},
        )
