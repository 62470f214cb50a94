"""Micro-benchmark: streaming sharded vs. materialised holdout evaluation.

The materialised baseline folds the whole holdout as one block
(``StreamingConfig(block_rows=holdout.n_rows)``): all k candidate
parameters in one GEMM, allocating the full ``(k, n_holdout)`` prediction
block.  The streaming engine (:mod:`repro.evaluation.streaming`) shards the
holdout into row blocks and accumulates per-candidate disagreement counts,
keeping peak memory at O(k · block) regardless of holdout size.

This benchmark measures both paths on a logistic-regression workload whose
holdout is at least 10× the block size, checks that the results agree to
1e-12, and (with ``--check``) asserts the memory contract:

* streaming peak ≤ materialised peak / RATIO, and
* streaming peak ≤ 8 · k · block_rows · 8 bytes (the O(k · block) bound
  with an allowance for the handful of per-block temporaries: logits,
  probabilities, labels and the block view itself).

Peak memory is measured with :mod:`tracemalloc` (NumPy array buffers are
tracked).  Run standalone::

    PYTHONPATH=src python benchmarks/bench_streaming_diff.py [--smoke] [--check 3]
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import tracemalloc

import numpy as np

from repro.core.parameter_sampler import ParameterSampler
from repro.core.statistics import compute_statistics
from repro.data.synthetic import higgs_like
from repro.evaluation.streaming import StreamingConfig, streaming_prediction_differences
from repro.models.logistic_regression import LogisticRegressionSpec

#: allowance multiplier on the k · block_rows · 8-byte ideal for per-block
#: temporaries (see module docstring).
BLOCK_BOUND_FACTOR = 8


def _measure(fn) -> tuple[np.ndarray, int, float]:
    """(result, peak allocated bytes, best-of-1 wall seconds) for ``fn``."""
    fn()  # warm-up: BLAS initialisation and caches out of the measurement
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return np.asarray(result), int(peak), elapsed


def run(n_train: int, n_holdout: int, n_features: int, k: int, block_rows: int) -> dict:
    train = higgs_like(n_rows=n_train, n_features=n_features, seed=201)
    holdout = higgs_like(n_rows=n_holdout, n_features=n_features, seed=202)
    spec = LogisticRegressionSpec(regularization=1e-3)

    n0 = min(2_000, n_train)
    sample = train.head(n0)
    model = spec.fit(sample)
    statistics = compute_statistics(spec, model.theta, sample)
    sampler = ParameterSampler(statistics, rng=np.random.default_rng(0))
    Thetas = sampler.sample_around(model.theta, n=n0, N=n_train, count=k, tag="bench")

    rows = []
    one_block = StreamingConfig(block_rows=holdout.n_rows)
    materialised, materialised_peak, materialised_seconds = _measure(
        lambda: streaming_prediction_differences(
            spec, model.theta, Thetas, holdout, config=one_block
        )
    )
    rows.append(("materialised", materialised_peak, materialised_seconds))

    config = StreamingConfig(block_rows=block_rows)
    streamed, streamed_peak, streamed_seconds = _measure(
        lambda: streaming_prediction_differences(spec, model.theta, Thetas, holdout, config)
    )
    rows.append((f"streaming (block={block_rows})", streamed_peak, streamed_seconds))

    threaded_config = StreamingConfig(block_rows=block_rows, n_workers=4)
    threaded, threaded_peak, threaded_seconds = _measure(
        lambda: streaming_prediction_differences(
            spec, model.theta, Thetas, holdout, threaded_config
        )
    )
    rows.append(("streaming (4 workers)", threaded_peak, threaded_seconds))

    np.testing.assert_allclose(streamed, materialised, atol=1e-12)
    np.testing.assert_allclose(threaded, materialised, atol=1e-12)

    return {
        "rows": rows,
        "materialised_peak": materialised_peak,
        "streamed_peak": streamed_peak,
        "block_bound": BLOCK_BOUND_FACTOR * k * block_rows * 8,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-rows", type=int, default=20_000)
    parser.add_argument("--holdout-rows", type=int, default=120_000)
    parser.add_argument("--features", type=int, default=40)
    parser.add_argument("--k", type=int, default=128, help="parameter samples")
    parser.add_argument("--block", type=int, default=8_192, help="rows per block")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast configuration for CI (48k-row holdout, k=64, 2k blocks)",
    )
    parser.add_argument(
        "--check", type=float, default=None, metavar="RATIO",
        help=(
            "exit non-zero unless streaming peak memory is at most "
            "1/RATIO of the materialised peak AND within the O(k · block) bound"
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.train_rows, args.holdout_rows, args.features = 8_000, 48_000, 30
        args.k, args.block = 64, 2_048
    if args.holdout_rows < 10 * args.block:
        parser.error("holdout must be at least 10x the block size")

    report = run(args.train_rows, args.holdout_rows, args.features, args.k, args.block)

    header = f"{'path':<28}{'peak MB':>12}{'seconds':>10}"
    print(f"holdout={args.holdout_rows} rows, k={args.k}, block={args.block}")
    print(header)
    print("-" * len(header))
    for name, peak, seconds in report["rows"]:
        print(f"{name:<28}{peak / 1e6:>12.2f}{seconds:>10.3f}")
    print(
        f"O(k · block) bound: {report['block_bound'] / 1e6:.2f} MB "
        f"(factor {BLOCK_BOUND_FACTOR})"
    )

    if args.check is not None:
        failures = []
        if report["streamed_peak"] * args.check > report["materialised_peak"]:
            failures.append(
                f"streaming peak {report['streamed_peak'] / 1e6:.2f} MB is not "
                f"{args.check:.1f}x below materialised "
                f"{report['materialised_peak'] / 1e6:.2f} MB"
            )
        if report["streamed_peak"] > report["block_bound"]:
            failures.append(
                f"streaming peak {report['streamed_peak'] / 1e6:.2f} MB exceeds the "
                f"O(k · block) bound {report['block_bound'] / 1e6:.2f} MB"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            f"OK: streaming peak {report['streamed_peak'] / 1e6:.2f} MB, "
            f"materialised {report['materialised_peak'] / 1e6:.2f} MB, "
            f"bound {report['block_bound'] / 1e6:.2f} MB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
