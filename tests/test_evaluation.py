"""Tests for the evaluation metrics, experiment runners and reporting helpers."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import higgs_like
from repro.evaluation import (
    format_table,
    generalization_error,
    model_agreement,
    percentile,
    summarize,
)
from repro.evaluation.experiments import measure_full_training, run_accuracy_sweep
from repro.exceptions import DataError
from repro.models.logistic_regression import LogisticRegressionSpec


@pytest.fixture(scope="module")
def eval_splits():
    data = higgs_like(n_rows=10_000, n_features=10, seed=80)
    return train_holdout_test_split(data, SplitSpec(0.1, 0.1), rng=np.random.default_rng(0))


class TestMetrics:
    def test_generalization_error_is_the_misclassification_rate(self, eval_splits):
        spec = LogisticRegressionSpec(regularization=1e-3)
        model = spec.fit(eval_splits.train)
        error = generalization_error(model, eval_splits.test)
        wrong = model.predict(eval_splits.test.X) != eval_splits.test.y
        assert error == pytest.approx(wrong.mean())
        assert error < 0.5

    def test_generalization_error_needs_labels(self, eval_splits):
        spec = LogisticRegressionSpec()
        model = spec.fit(eval_splits.train)
        unlabeled = Dataset(eval_splits.test.X)
        with pytest.raises(DataError):
            generalization_error(model, unlabeled)

    def test_model_agreement_bounds(self, eval_splits):
        spec = LogisticRegressionSpec()
        model = spec.fit(eval_splits.train)
        assert model_agreement(spec, model.theta, model.theta, eval_splits.holdout) == 1.0
        rng = np.random.default_rng(1)
        other = rng.normal(size=model.theta.shape)
        agreement = model_agreement(spec, model.theta, other, eval_splits.holdout)
        assert 0.0 <= agreement <= 1.0


class TestExperimentRunners:
    def test_measure_full_training(self, eval_splits):
        model, seconds = measure_full_training(LogisticRegressionSpec(), eval_splits)
        assert seconds > 0
        assert model.n_train == eval_splits.train.n_rows

    def test_run_accuracy_sweep_records(self, eval_splits):
        records = run_accuracy_sweep(
            spec_factory=lambda: LogisticRegressionSpec(regularization=1e-3),
            splits=eval_splits,
            requested_accuracies=[0.85, 0.95],
            initial_sample_size=500,
            n_parameter_samples=32,
            seed=0,
        )
        assert len(records) == 2
        for record in records:
            assert 0 <= record.actual_accuracy <= 1
            assert record.sample_size <= record.full_size
            assert 0 <= record.sample_fraction <= 1
            assert record.speedup > 0
            assert record.time_saving <= 1
            row = record.as_dict()
            assert "requested_accuracy" in row and "speedup" in row

    def test_sweep_actual_accuracy_meets_request(self, eval_splits):
        records = run_accuracy_sweep(
            spec_factory=lambda: LogisticRegressionSpec(regularization=1e-3),
            splits=eval_splits,
            requested_accuracies=[0.9],
            initial_sample_size=500,
            n_parameter_samples=64,
            seed=1,
        )
        assert records[0].actual_accuracy >= 0.9 - 0.03


class TestReporting:
    def test_percentile_and_summarize(self):
        values = list(range(101))
        assert percentile(values, 50) == pytest.approx(50)
        stats = summarize(values)
        assert stats["mean"] == pytest.approx(50)
        assert stats["p5"] == pytest.approx(5)
        assert stats["p95"] == pytest.approx(95)

    def test_format_table_alignment(self):
        rows = [
            {"name": "a", "value": 1.23456},
            {"name": "long-name", "value": 7},
        ]
        table = format_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "name" in lines[0] and "value" in lines[0]
        assert len({len(line) for line in lines[2:]}) >= 1

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        table = format_table(rows, columns=["b"])
        assert "a" not in table.splitlines()[0]
