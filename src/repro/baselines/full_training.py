"""Full-training baseline: the traditional ML-library behaviour.

Trains on the entire dataset, ignoring the approximation contract.  Every
speed-up number in the Figure 5 / Table 4 reproduction is relative to this
baseline.
"""

from __future__ import annotations

import time

from repro.baselines.base import BaselineRunResult, SampleSizeBaseline
from repro.core.contract import ApproximationContract
from repro.data.dataset import Dataset


class FullTrainingBaseline(SampleSizeBaseline):
    """Always train the exact full model m_N."""

    policy_name = "full_training"

    def run(
        self,
        train: Dataset,
        holdout: Dataset,
        contract: ApproximationContract,
    ) -> BaselineRunResult:
        del holdout, contract
        start = time.perf_counter()
        model = self.spec.fit(train)
        elapsed = time.perf_counter() - start
        return BaselineRunResult(
            model=model,
            sample_size=train.n_rows,
            training_seconds=elapsed,
            n_models_trained=1,
            policy=self.policy_name,
        )
