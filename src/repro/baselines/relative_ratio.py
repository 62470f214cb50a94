"""RelativeRatio baseline: sample fraction proportional to requested accuracy.

Section 5.4: "RelativeRatio used (1 − ε) * 10% samples for training
approximate models (e.g., 9.5% sample for 95% requested accuracy)."  The
fraction scales with the request but is still model-agnostic, so it tends to
be far more expensive than necessary while offering no guarantee.
"""

from __future__ import annotations

from repro.baselines.base import BaselineRunResult, SampleSizeBaseline
from repro.core.contract import ApproximationContract
from repro.data.dataset import Dataset
from repro.exceptions import SampleSizeError
from repro.models.base import ModelClassSpec


class RelativeRatioBaseline(SampleSizeBaseline):
    """Train on ``(1 − ε) * scale`` of the rows."""

    policy_name = "relative_ratio"

    def __init__(
        self,
        spec: ModelClassSpec,
        scale: float = 0.10,
        seed: int | None = None,
    ):
        super().__init__(spec, seed=seed)
        if not 0.0 < scale <= 1.0:
            raise SampleSizeError("scale must lie in (0, 1]")
        self.scale = scale

    def run(
        self,
        train: Dataset,
        holdout: Dataset,
        contract: ApproximationContract,
    ) -> BaselineRunResult:
        del holdout
        fraction = contract.requested_accuracy * self.scale
        sample_size = max(1, int(round(fraction * train.n_rows)))
        model, elapsed = self._train_on_sample(train, sample_size)
        return BaselineRunResult(
            model=model,
            sample_size=sample_size,
            training_seconds=elapsed,
            n_models_trained=1,
            policy=self.policy_name,
            metadata={"fraction": fraction},
        )
