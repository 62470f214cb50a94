"""Differential: the classifiers' narrow decision labels change no answer.

Logistic regression and max-entropy count holdout disagreements from their
own ``_decisions`` labels (booleans; narrow unsigned class ids).  A subclass
whose hook is pinned back to the base default, which returns
``predict_many``'s int64 labels, must train to the same sample size, the
same θ bytes and the same ε estimate, serial or fanned out over threads,
with the holdout split into several blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.contract import ApproximationContract
from repro.core.coordinator import BlinkML
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import higgs_like, mnist_like
from repro.evaluation.streaming import StreamingConfig
from repro.models.base import ModelClassSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.models.max_entropy import MaxEntropySpec

BLOCK_ROWS = 128
INITIAL_SAMPLE_SIZE = 200


class PinnedLogisticRegression(LogisticRegressionSpec):
    _decisions = ModelClassSpec._decisions


class PinnedMaxEntropy(MaxEntropySpec):
    _decisions = ModelClassSpec._decisions


CASES = {
    "lr": (
        LogisticRegressionSpec,
        PinnedLogisticRegression,
        {},
        lambda: higgs_like(n_rows=3_000, n_features=8, seed=41),
        0.03,
    ),
    "me": (
        MaxEntropySpec,
        PinnedMaxEntropy,
        {"n_classes": 4},
        lambda: mnist_like(n_rows=3_000, n_features=12, n_classes=4, seed=42),
        0.1,
    ),
}


def train(spec, splits, workers: int, epsilon: float):
    trainer = BlinkML(
        spec,
        initial_sample_size=INITIAL_SAMPLE_SIZE,
        n_parameter_samples=32,
        seed=7,
        streaming=StreamingConfig(block_rows=BLOCK_ROWS, n_workers=workers),
    )
    return trainer.train(
        splits.train, splits.holdout, ApproximationContract(epsilon=epsilon, delta=0.1)
    )


@pytest.mark.parametrize("family", sorted(CASES))
def test_pinned_hook_trains_the_same_answer(family):
    stock_type, pinned_type, kwargs, make_data, epsilon = CASES[family]
    splits = train_holdout_test_split(
        make_data(),
        SplitSpec(holdout_fraction=0.2, test_fraction=0.1),
        rng=np.random.default_rng(5),
    )
    assert splits.holdout.n_rows >= 3 * BLOCK_ROWS
    answers = []
    for spec_type in (stock_type, pinned_type):
        for workers in (0, 2):
            result = train(spec_type(regularization=1e-3, **kwargs), splits, workers, epsilon)
            answers.append(
                (result.sample_size, result.model.theta.tobytes(), result.estimated_epsilon)
            )
    # The contract needs a size search, so the search's diffs decide n.
    assert answers[0][0] > INITIAL_SAMPLE_SIZE
    assert answers[1:] == answers[:1] * 3
