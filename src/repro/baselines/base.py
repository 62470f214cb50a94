"""Common interface and result record for the sample-size baselines."""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.contract import ApproximationContract
from repro.data.dataset import Dataset
from repro.data.sampling import UniformSampler
from repro.models.base import ModelClassSpec, TrainedModel


@dataclass
class BaselineRunResult:
    """Outcome of training one approximate model under a baseline policy.

    Attributes
    ----------
    model:
        The trained (approximate) model.
    sample_size:
        Number of training rows the final model consumed.
    training_seconds:
        Total wall-clock time the policy spent (including any intermediate
        models it had to train, as IncEstimator does).
    n_models_trained:
        How many models the policy trained along the way.
    policy:
        Short name of the policy (used in the Figure 7 tables).
    """

    model: TrainedModel
    sample_size: int
    training_seconds: float
    n_models_trained: int
    policy: str
    metadata: dict = field(default_factory=dict)


class SampleSizeBaseline(ABC):
    """A policy that picks a sample size and trains an approximate model."""

    policy_name = "baseline"

    def __init__(self, spec: ModelClassSpec, seed: int | None = None):
        self.spec = spec
        self._rng = np.random.default_rng(seed)

    @abstractmethod
    def run(
        self,
        train: Dataset,
        holdout: Dataset,
        contract: ApproximationContract,
    ) -> BaselineRunResult:
        """Train an approximate model according to the policy."""

    # Helper shared by the concrete baselines -------------------------------
    def _train_on_sample(
        self, train: Dataset, sample_size: int
    ) -> tuple[TrainedModel, float]:
        sample_size = int(min(max(sample_size, 1), train.n_rows))
        sampler = UniformSampler(train, rng=self._rng)
        sample = sampler.sample(sample_size)
        start = time.perf_counter()
        model = self.spec.fit(sample)
        elapsed = time.perf_counter() - start
        return model, elapsed
