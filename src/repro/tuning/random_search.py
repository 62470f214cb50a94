"""Random-search driver comparing full training with BlinkML training.

Section 5.7: both strategies consume the *same* candidate sequence; the
traditional approach trains an exact model per candidate while BlinkML
trains a 95 %-accurate approximate model.  Because every approximate model
is dramatically cheaper, BlinkML evaluates orders of magnitude more
candidates within the same wall-clock budget (961 vs. 3 in the paper).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.config import DELTA
from repro.core.contract import ApproximationContract
from repro.core.coordinator import BlinkML
from repro.data.dataset import Dataset
from repro.exceptions import ModelSpecError
from repro.models.base import ModelClassSpec
from repro.tuning.search_space import HyperparameterCandidate


@dataclass
class SearchTrial:
    """Outcome of evaluating one hyperparameter candidate."""

    candidate: HyperparameterCandidate
    test_accuracy: float
    training_seconds: float
    cumulative_seconds: float
    sample_size: int
    strategy: str


@dataclass
class SearchResult:
    """All trials of one random-search run plus the best one found."""

    strategy: str
    trials: list[SearchTrial] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def best_trial(self) -> SearchTrial | None:
        if not self.trials:
            return None
        return max(self.trials, key=lambda trial: trial.test_accuracy)


class RandomSearch:
    """Evaluate a candidate sequence with either full or BlinkML training.

    Parameters
    ----------
    spec_factory:
        Callable mapping a regularisation coefficient to a fresh model spec
        (e.g. ``lambda reg: LogisticRegressionSpec(regularization=reg)``).
    train / holdout / test:
        Data splits.  Candidates select feature subsets of these.
    contract:
        Approximation contract used by the BlinkML strategy (95 % / δ=0.05
        in the paper).
    initial_sample_size / n_parameter_samples / seed:
        Forwarded to the BlinkML coordinator.
    """

    def __init__(
        self,
        spec_factory: Callable[[float], ModelClassSpec],
        train: Dataset,
        holdout: Dataset,
        test: Dataset,
        contract: ApproximationContract | None = None,
        initial_sample_size: int = 2_000,
        n_parameter_samples: int = 64,
        seed: int | None = 0,
    ):
        self.spec_factory = spec_factory
        self.train = train
        self.holdout = holdout
        self.test = test
        self.contract = contract or ApproximationContract(epsilon=0.05, delta=DELTA)
        self.initial_sample_size = initial_sample_size
        self.n_parameter_samples = n_parameter_samples
        self.seed = seed

    # ------------------------------------------------------------------
    def _test_accuracy(self, spec: ModelClassSpec, theta: np.ndarray, test: Dataset) -> float:
        predictions = spec.predict(theta, test.X)
        if spec.task in {"binary", "multiclass"}:
            return float(np.mean(predictions == test.y))
        if spec.task == "regression":
            # R²-style score so "higher is better" holds for every task.
            residual = float(np.mean((predictions - test.y) ** 2))
            variance = float(np.var(test.y)) or 1.0
            return 1.0 - residual / variance
        raise ModelSpecError(f"cannot score task {spec.task!r} on a test set")

    # ------------------------------------------------------------------
    def run(
        self,
        candidates: list[HyperparameterCandidate],
        strategy: str = "blinkml",
        time_budget_seconds: float | None = None,
    ) -> SearchResult:
        """Evaluate candidates in order until the budget (or the list) runs out.

        Parameters
        ----------
        candidates:
            The shared candidate sequence (from :class:`SearchSpace`).
        strategy:
            ``"blinkml"`` (approximate models under the contract) or
            ``"full"`` (exact models).
        time_budget_seconds:
            Optional wall-clock budget; evaluation stops after the first
            candidate that exceeds it.
        """
        if strategy not in {"blinkml", "full"}:
            raise ModelSpecError("strategy must be 'blinkml' or 'full'")

        result = SearchResult(strategy=strategy)
        cumulative = 0.0
        for candidate in candidates:
            if time_budget_seconds is not None and cumulative >= time_budget_seconds:
                break
            spec = self.spec_factory(candidate.regularization)
            train_view = self.train.select_features(np.array(candidate.feature_indices))
            holdout_view = self.holdout.select_features(np.array(candidate.feature_indices))
            test_view = self.test.select_features(np.array(candidate.feature_indices))

            start = time.perf_counter()
            if strategy == "full":
                model = spec.fit(train_view)
                sample_size = train_view.n_rows
                theta = model.theta
            else:
                coordinator = BlinkML(
                    spec,
                    initial_sample_size=self.initial_sample_size,
                    n_parameter_samples=self.n_parameter_samples,
                    seed=self.seed,
                )
                outcome = coordinator.train(train_view, holdout_view, self.contract)
                sample_size = outcome.sample_size
                theta = outcome.model.theta
            elapsed = time.perf_counter() - start
            cumulative += elapsed

            accuracy = self._test_accuracy(spec, theta, test_view)
            result.trials.append(
                SearchTrial(
                    candidate=candidate,
                    test_accuracy=accuracy,
                    training_seconds=elapsed,
                    cumulative_seconds=cumulative,
                    sample_size=sample_size,
                    strategy=strategy,
                )
            )
        return result
