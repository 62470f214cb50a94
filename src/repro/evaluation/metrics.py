"""Evaluation metrics used by the experiment harness.

Two families of metrics appear in the paper's evaluation:

* *model agreement* — how often the approximate model makes the same
  prediction as the full model (this is ``1 − v(m_n)`` and is what the
  "actual accuracy" columns of Table 5 report);
* *generalisation error* — the error of a model on unseen labelled data
  (Figure 8b), which Lemma 1 relates to the agreement guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.evaluation.streaming import StreamingConfig, streaming_prediction_differences
from repro.exceptions import DataError
from repro.models.base import ModelClassSpec, TrainedModel


def generalization_error(model: TrainedModel, dataset: Dataset) -> float:
    """Misclassification rate on a labelled test set (Figure 8b metric)."""
    if dataset.y is None:
        raise DataError("generalization error needs labels")
    predictions = model.predict(dataset.X)
    return 1.0 - float(np.mean(predictions == dataset.y))


def model_agreement(
    spec: ModelClassSpec,
    theta_approx: np.ndarray,
    theta_full: np.ndarray,
    dataset: Dataset,
    streaming: StreamingConfig | None = None,
) -> float:
    """The *actual accuracy* ``1 − v`` between an approximate and a full model.

    Streamed through the model family's diff accumulator like every other
    batched ``diff``; ``streaming=None`` means the default
    :class:`StreamingConfig`.
    """
    return float(model_agreements(spec, [theta_approx], theta_full, dataset, streaming)[0])


def model_agreements(
    spec: ModelClassSpec,
    Thetas_approx: np.ndarray,
    theta_full: np.ndarray,
    dataset: Dataset,
    streaming: StreamingConfig | None = None,
) -> np.ndarray:
    """Batched *actual accuracy*: ``1 − v`` for a stack of approximate models.

    All model-difference metrics in the library are symmetric, so the full
    model serves as the reference θ of the batched diff, which is streamed
    through the family's diff accumulator at O(k · block) memory
    (``streaming=None`` means the default :class:`StreamingConfig`).
    """
    differences = streaming_prediction_differences(
        spec, theta_full, Thetas_approx, dataset, config=streaming
    )
    return 1.0 - differences
