"""Reusable experiment runners shared by the benchmark modules.

Each runner corresponds to a *shape* of experiment the paper repeats across
several figures:

* :func:`run_accuracy_sweep` — the Figure 5 / Figure 6 shape: sweep the
  requested accuracy, train a BlinkML model per level, compare against the
  full model (training time, sample size, actual agreement);
* :func:`measure_full_training` — trains the exact model once and reports
  its wall-clock cost, reused as the denominator of every speed-up.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.config import DELTA
from repro.core.contract import ApproximationContract
from repro.core.coordinator import BlinkML
from repro.data.splits import DataSplits
from repro.evaluation.metrics import model_agreement
from repro.models.base import ModelClassSpec, TrainedModel


@dataclass
class SweepRecord:
    """One row of an accuracy-sweep experiment (Figure 5 / 6 / Table 4 / 5)."""

    requested_accuracy: float
    actual_accuracy: float
    estimated_accuracy: float
    training_seconds: float
    full_training_seconds: float
    sample_size: int
    full_size: int
    used_initial_model: bool
    extras: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.training_seconds <= 0:
            return float("inf")
        return self.full_training_seconds / self.training_seconds

    @property
    def time_saving(self) -> float:
        """Fraction of full-training time saved (the right axis of Figure 5)."""
        if self.full_training_seconds <= 0:
            return 0.0
        return 1.0 - self.training_seconds / self.full_training_seconds

    @property
    def sample_fraction(self) -> float:
        return self.sample_size / self.full_size if self.full_size else 1.0

    def as_dict(self) -> dict:
        return {
            "requested_accuracy": self.requested_accuracy,
            "actual_accuracy": self.actual_accuracy,
            "estimated_accuracy": self.estimated_accuracy,
            "training_seconds": self.training_seconds,
            "full_training_seconds": self.full_training_seconds,
            "speedup": self.speedup,
            "time_saving": self.time_saving,
            "sample_size": self.sample_size,
            "sample_fraction": self.sample_fraction,
            "used_initial_model": self.used_initial_model,
            **self.extras,
        }


def measure_full_training(spec: ModelClassSpec, splits: DataSplits) -> tuple[TrainedModel, float]:
    """Train the exact full model and return it with its wall-clock cost."""
    start = time.perf_counter()
    model = spec.fit(splits.train)
    elapsed = time.perf_counter() - start
    return model, elapsed


def run_accuracy_sweep(
    spec_factory: Callable[[], ModelClassSpec],
    splits: DataSplits,
    requested_accuracies: Sequence[float],
    delta: float = DELTA,
    repetitions: int = 1,
    initial_sample_size: int = 2_000,
    n_parameter_samples: int = 64,
    seed: int = 0,
    full_model: TrainedModel | None = None,
    full_training_seconds: float | None = None,
) -> list[SweepRecord]:
    """Sweep requested accuracies and record BlinkML vs. full-model behaviour.

    A fresh spec is created per repetition (so stateful specs such as
    MaxEntropy re-infer their class count cleanly) and the full model is
    trained once and shared across the sweep, as it would be in practice.
    """
    if full_model is None or full_training_seconds is None:
        full_model, full_training_seconds = measure_full_training(spec_factory(), splits)

    records: list[SweepRecord] = []
    for accuracy in requested_accuracies:
        for repetition in range(repetitions):
            spec = spec_factory()
            coordinator = BlinkML(
                spec,
                initial_sample_size=initial_sample_size,
                n_parameter_samples=n_parameter_samples,
                seed=seed + repetition,
            )
            contract = ApproximationContract.from_accuracy(accuracy, delta=delta)
            start = time.perf_counter()
            outcome = coordinator.train(splits.train, splits.holdout, contract)
            elapsed = time.perf_counter() - start
            agreement = model_agreement(
                spec, outcome.model.theta, full_model.theta, splits.holdout
            )
            records.append(
                SweepRecord(
                    requested_accuracy=accuracy,
                    actual_accuracy=agreement,
                    estimated_accuracy=outcome.estimated_accuracy,
                    training_seconds=elapsed,
                    full_training_seconds=full_training_seconds,
                    sample_size=outcome.sample_size,
                    full_size=outcome.full_size,
                    used_initial_model=outcome.used_initial_model,
                    extras={
                        "repetition": repetition,
                        "timings": outcome.timings.as_dict(),
                    },
                )
            )
    return records
