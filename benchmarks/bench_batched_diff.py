"""Micro-benchmark: batched vs. per-sample MCS ``diff`` evaluation.

The accuracy estimator (Section 3.3) and every binary-search probe of the
sample-size estimator (Section 4.2) evaluate the MCS ``diff`` function
against k = 128 sampled parameter vectors.  The batched ``diff`` collapses
that inner loop into one ``Thetas @ Xᵀ``-style GEMM per holdout block; this
benchmark measures the speedup on the Figure 7-style logistic-regression
workload (Criteo-like features) for

* the raw k-candidate diff evaluation (accuracy-estimator inner loop),
* the pairwise two-stage variant (sample-size-estimator inner loop),
* a full ``ModelAccuracyEstimator.estimate`` call.

The loop path is the scalar ``prediction_difference`` evaluated pair by
pair (what any custom spec without streaming accumulators gets); the
batched path is ``streaming_prediction_differences`` /
``streaming_fanout_pairwise_prediction_differences`` driving the
``LogisticRegressionSpec`` accumulators.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_batched_diff.py [--smoke] [--check 5]

``--check X`` exits non-zero unless every speedup is at least X-fold, which
is how CI smoke-tests the engine.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.accuracy import ModelAccuracyEstimator
from repro.core.parameter_sampler import ParameterSampler
from repro.core.statistics import compute_statistics
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import criteo_like
from repro.evaluation.streaming import (
    streaming_fanout_pairwise_prediction_differences,
    streaming_prediction_differences,
)
from repro.models.base import ModelClassSpec
from repro.models.logistic_regression import LogisticRegressionSpec


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds (one untimed warm-up call)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(n_rows: int, n_features: int, k: int, repeats: int) -> list[dict]:
    data = criteo_like(n_rows=n_rows, n_features=n_features, density=0.05, seed=103)
    splits = train_holdout_test_split(
        data, SplitSpec(holdout_fraction=0.1, test_fraction=0.1),
        rng=np.random.default_rng(3),
    )
    spec = LogisticRegressionSpec(regularization=1e-3)

    n0 = min(2_000, splits.train.n_rows)
    N = splits.train.n_rows
    sample = splits.train.take(np.arange(n0))
    model = spec.fit(sample)
    statistics = compute_statistics(spec, model.theta, sample)
    sampler = ParameterSampler(statistics, rng=np.random.default_rng(0))
    theta_N = sampler.sample_around(model.theta, n=n0, N=N, count=k, tag="accuracy")
    theta_n_pairs, theta_N_pairs = sampler.two_stage_samples(
        model.theta, n0=n0, n=min(4 * n0, N), N=N, count=k
    )
    holdout = splits.holdout

    rows = []

    def record(name, loop_fn, batched_fn, checked=True):
        batched_result = np.asarray(batched_fn())
        loop_result = np.asarray(loop_fn())
        np.testing.assert_allclose(batched_result, loop_result, atol=1e-12)
        loop_seconds = _time(loop_fn, repeats)
        batched_seconds = _time(batched_fn, repeats)
        rows.append(
            {
                "stage": name,
                "loop_ms": 1e3 * loop_seconds,
                "batched_ms": 1e3 * batched_seconds,
                "speedup": loop_seconds / batched_seconds,
                "checked": checked,
            }
        )

    record(
        f"accuracy diffs (k={k})",
        lambda: [spec.prediction_difference(model.theta, theta, holdout) for theta in theta_N],
        lambda: streaming_prediction_differences(spec, model.theta, theta_N, holdout),
    )
    # Informational: the pairwise loop path already evaluated both sides of
    # every pair, so its batched win is smaller than the accuracy path's
    # (which stops recomputing the reference predictions k times).
    record(
        f"two-stage pairwise diffs (k={k})",
        lambda: [
            spec.prediction_difference(theta_a, theta_b, holdout)
            for theta_a, theta_b in zip(theta_n_pairs, theta_N_pairs)
        ],
        lambda: streaming_fanout_pairwise_prediction_differences(
            spec, [(theta_n_pairs, theta_N_pairs)], holdout
        )[0],
        checked=False,
    )

    # Full accuracy estimate: loop path simulated by pinning the generic
    # fallbacks on a thin spec, so it only exposes the scalar diff (i.e.
    # what any custom ModelClassSpec without vectorised overrides
    # experiences).
    class LoopOnlySpec(LogisticRegressionSpec):
        predict_many = ModelClassSpec.predict_many
        diff_accumulator = ModelClassSpec.diff_accumulator
        pairwise_diff_accumulator = ModelClassSpec.pairwise_diff_accumulator

    loop_spec = LoopOnlySpec(regularization=1e-3)
    batched_estimator = ModelAccuracyEstimator(spec, holdout, n_parameter_samples=k)
    loop_estimator = ModelAccuracyEstimator(loop_spec, holdout, n_parameter_samples=k)
    record(
        f"full accuracy estimate (k={k})",
        lambda: loop_estimator.estimate(
            model.theta, n=n0, N=N, delta=0.05, statistics=statistics, sampler=sampler
        ).sampled_differences,
        lambda: batched_estimator.estimate(
            model.theta, n=n0, N=N, delta=0.05, statistics=statistics, sampler=sampler
        ).sampled_differences,
    )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=30_000, help="workload rows")
    parser.add_argument("--features", type=int, default=200, help="feature dimension")
    parser.add_argument("--k", type=int, default=128, help="parameter samples")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast configuration for CI (6k rows, k=64)",
    )
    parser.add_argument(
        "--check", type=float, default=None, metavar="MIN",
        help=(
            "exit non-zero unless every accuracy-estimate speedup is at "
            "least MIN-fold (the pairwise stage is informational)"
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        # Keep best-of-3 timing even in smoke mode: on shared CI runners a
        # single scheduler stall during a best-of-1 measurement would trip
        # the --check gate without any real regression.
        args.rows, args.features, args.k, args.repeats = 6_000, 100, 64, 3

    rows = run(args.rows, args.features, args.k, args.repeats)

    header = f"{'stage':<34}{'loop ms':>12}{'batched ms':>12}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['stage']:<34}{row['loop_ms']:>12.2f}"
            f"{row['batched_ms']:>12.2f}{row['speedup']:>9.1f}x"
        )

    if args.check is not None:
        worst = min(row["speedup"] for row in rows if row["checked"])
        if worst < args.check:
            print(f"FAIL: worst speedup {worst:.1f}x below required {args.check:.1f}x")
            return 1
        print(f"OK: worst speedup {worst:.1f}x >= {args.check:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
