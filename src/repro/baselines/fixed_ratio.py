"""FixedRatio baseline: always train on a fixed fraction of the data.

Section 5.4: "FixedRatio always used 1% samples for training approximate
models."  Because the fraction ignores both the model and the requested
accuracy, it either under-delivers (violates the accuracy request) or
over-spends (uses far more data than needed) — which is exactly the failure
mode Figure 7 illustrates.
"""

from __future__ import annotations

from repro.baselines.base import BaselineRunResult, SampleSizeBaseline
from repro.core.contract import ApproximationContract
from repro.data.dataset import Dataset
from repro.exceptions import SampleSizeError
from repro.models.base import ModelClassSpec


class FixedRatioBaseline(SampleSizeBaseline):
    """Train on ``ratio`` of the rows regardless of the contract."""

    policy_name = "fixed_ratio"

    def __init__(
        self,
        spec: ModelClassSpec,
        ratio: float = 0.01,
        seed: int | None = None,
    ):
        super().__init__(spec, seed=seed)
        if not 0.0 < ratio <= 1.0:
            raise SampleSizeError("ratio must lie in (0, 1]")
        self.ratio = ratio

    def run(
        self,
        train: Dataset,
        holdout: Dataset,
        contract: ApproximationContract,
    ) -> BaselineRunResult:
        del holdout, contract  # the policy ignores both
        sample_size = max(1, int(round(self.ratio * train.n_rows)))
        model, elapsed = self._train_on_sample(train, sample_size)
        return BaselineRunResult(
            model=model,
            sample_size=sample_size,
            training_seconds=elapsed,
            n_models_trained=1,
            policy=self.policy_name,
            metadata={"ratio": self.ratio},
        )
