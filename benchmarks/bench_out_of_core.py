"""Out-of-core benchmark: streaming a memory-mapped sharded holdout.

The storage tier's contract is that holdout evaluation over a
:class:`~repro.data.store.ShardedDataset` needs resident memory
proportional to **one block**, never to the holdout size N — the rows live
in memory-mapped ``.npy`` shards and only the per-block temporaries (the
``(k, block)`` prediction slab and friends) are ever allocated.  This
benchmark measures three paths on a logistic-regression workload whose
holdout is at least 10× the block size:

* the materialised diff on the in-memory holdout: the whole holdout
  folded as one ``(k, n_holdout)`` block;
* the streamed diff on the in-memory holdout;
* the streamed diff on the sharded holdout, serial and fanned out over
  two threads.

It always asserts bitwise agreement across every path (classification
counts are exact), and with ``--check`` additionally gates:

* sharded streaming peak ≤ ``BLOCK_BOUND_FACTOR · k · block_rows · 8``
  bytes (a small constant factor of one block), and
* sharded streaming peak ≤ the in-memory holdout's own byte size divided
  by ``MIN_HOLDOUT_RATIO`` — i.e. demonstrably *not* O(N).

Peak memory is measured with :mod:`tracemalloc`; memory-mapped pages are
OS page cache, not process allocations, so what is measured is exactly the
working set the streaming engine allocates.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_out_of_core.py [--smoke] [--check]
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from repro.core.parameter_sampler import ParameterSampler
from repro.core.statistics import compute_statistics
from repro.data.store import ShardStore
from repro.data.synthetic import higgs_like
from repro.evaluation.streaming import StreamingConfig, streaming_prediction_differences
from repro.models.logistic_regression import LogisticRegressionSpec

#: allowance multiplier on the k · block_rows · 8-byte ideal for per-block
#: temporaries (logits, probabilities, labels, the block view itself) —
#: matches benchmarks/bench_streaming_diff.py.
BLOCK_BOUND_FACTOR = 8

#: the sharded streaming peak must stay at least this many times below the
#: in-memory holdout's feature-matrix bytes (the "not O(N)" half of the gate).
MIN_HOLDOUT_RATIO = 3.0


def _measure(fn) -> tuple[np.ndarray, int, float]:
    """(result, peak allocated bytes, best-of-1 wall seconds) for ``fn``."""
    fn()  # warm-up: BLAS initialisation, shard memory maps, caches
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return np.asarray(result), int(peak), elapsed


def run(
    n_train: int,
    n_holdout: int,
    n_features: int,
    k: int,
    block_rows: int,
    shard_rows: int,
    store_dir: str,
) -> dict:
    train = higgs_like(n_rows=n_train, n_features=n_features, seed=211)
    holdout = higgs_like(n_rows=n_holdout, n_features=n_features, seed=212)
    spec = LogisticRegressionSpec(regularization=1e-3)

    write_start = time.perf_counter()
    store = ShardStore.write(holdout, store_dir, shard_rows=shard_rows)
    write_seconds = time.perf_counter() - write_start
    store.verify()
    sharded = store.dataset()
    assert sharded.content_digest() == holdout.content_digest()

    n0 = min(2_000, n_train)
    sample = train.head(n0)
    model = spec.fit(sample)
    statistics = compute_statistics(spec, model.theta, sample)
    sampler = ParameterSampler(statistics, rng=np.random.default_rng(0))
    Thetas = sampler.sample_around(model.theta, n=n0, N=n_train, count=k, tag="bench")

    rows = []
    one_block = StreamingConfig(block_rows=holdout.n_rows)
    materialised, materialised_peak, seconds = _measure(
        lambda: streaming_prediction_differences(
            spec, model.theta, Thetas, holdout, config=one_block
        )
    )
    rows.append(("materialised (in-memory)", materialised_peak, seconds))

    config = StreamingConfig(block_rows=block_rows)
    streamed_memory, memory_peak, seconds = _measure(
        lambda: streaming_prediction_differences(spec, model.theta, Thetas, holdout, config)
    )
    rows.append(("streaming (in-memory)", memory_peak, seconds))

    streamed_sharded, sharded_peak, seconds = _measure(
        lambda: streaming_prediction_differences(spec, model.theta, Thetas, sharded, config)
    )
    rows.append((f"streaming (sharded, block={block_rows})", sharded_peak, seconds))

    threaded_config = StreamingConfig(block_rows=block_rows, n_workers=2)
    streamed_threaded, threaded_peak, seconds = _measure(
        lambda: streaming_prediction_differences(
            spec, model.theta, Thetas, sharded, threaded_config
        )
    )
    rows.append(("streaming (sharded, 2 threads)", threaded_peak, seconds))

    # Accuracy gate (always on): neither the storage tier nor fan-out over
    # its memory maps may change a single bit of the classification
    # estimates.
    if not np.array_equal(streamed_memory, materialised):
        raise AssertionError("in-memory streamed diff drifted from materialised")
    if not np.array_equal(streamed_sharded, materialised):
        raise AssertionError("sharded streamed diff drifted from materialised")
    if not np.array_equal(streamed_threaded, materialised):
        raise AssertionError("threaded streamed diff drifted from materialised")

    return {
        "rows": rows,
        "write_seconds": write_seconds,
        "n_shards": store.n_shards,
        "sharded_peak": sharded_peak,
        "holdout_bytes": int(np.asarray(holdout.X).nbytes),
        "block_bound": BLOCK_BOUND_FACTOR * k * block_rows * 8,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-rows", type=int, default=20_000)
    parser.add_argument("--holdout-rows", type=int, default=150_000)
    parser.add_argument("--features", type=int, default=40)
    parser.add_argument("--k", type=int, default=128, help="parameter samples")
    parser.add_argument("--block", type=int, default=8_192, help="rows per block")
    parser.add_argument("--shard", type=int, default=32_768, help="rows per shard")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast configuration for CI (96k-row holdout, k=64, 2k blocks)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "exit non-zero unless the sharded streaming peak stays within the "
            "O(k · block) bound AND well below the holdout's own byte size"
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.train_rows, args.holdout_rows, args.features = 8_000, 96_000, 30
        args.k, args.block, args.shard = 64, 2_048, 8_192
    if args.holdout_rows < 10 * args.block:
        parser.error("holdout must be at least 10x the block size")

    with tempfile.TemporaryDirectory(prefix="bench-out-of-core-") as store_dir:
        report = run(
            args.train_rows, args.holdout_rows, args.features,
            args.k, args.block, args.shard, store_dir,
        )

    header = f"{'path':<34}{'peak MB':>12}{'seconds':>10}"
    print(
        f"holdout={args.holdout_rows} rows x {args.features} features "
        f"({report['holdout_bytes'] / 1e6:.1f} MB), k={args.k}, "
        f"block={args.block}, {report['n_shards']} shards "
        f"(written in {report['write_seconds']:.2f}s)"
    )
    print(header)
    print("-" * len(header))
    for name, peak, seconds in report["rows"]:
        print(f"{name:<34}{peak / 1e6:>12.2f}{seconds:>10.3f}")
    print(
        f"O(k · block) bound: {report['block_bound'] / 1e6:.2f} MB "
        f"(factor {BLOCK_BOUND_FACTOR}); all paths bitwise identical"
    )

    if args.check:
        failures = []
        if report["sharded_peak"] > report["block_bound"]:
            failures.append(
                f"sharded streaming peak {report['sharded_peak'] / 1e6:.2f} MB "
                f"exceeds the O(k · block) bound {report['block_bound'] / 1e6:.2f} MB"
            )
        if report["sharded_peak"] * MIN_HOLDOUT_RATIO > report["holdout_bytes"]:
            failures.append(
                f"sharded streaming peak {report['sharded_peak'] / 1e6:.2f} MB is "
                f"not {MIN_HOLDOUT_RATIO:.1f}x below the holdout's "
                f"{report['holdout_bytes'] / 1e6:.2f} MB — the evaluation is "
                "scaling with N, not with one block"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            f"OK: sharded peak {report['sharded_peak'] / 1e6:.2f} MB vs "
            f"block bound {report['block_bound'] / 1e6:.2f} MB and holdout "
            f"{report['holdout_bytes'] / 1e6:.2f} MB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
