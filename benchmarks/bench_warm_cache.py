"""Benchmark: the cross-process warm cache tier across simulated restarts.

A serving process answers a repeat (ε, δ) contract from its in-memory
caches — but those die with the process.  The warm tier
(``repro.data.store.warm_cache``) persists the expensive artifacts
(sorted difference vectors, size-search results, the initial model m_0
and every trained m_n) as digest-verified entries in a shared directory,
so a *restarted* process answers the same contracts with **zero streamed
holdout passes**, fits no model, and returns bitwise identical results.

The benchmark spawns three genuinely separate processes against one warm
directory:

1. **cold** — empty directory; serves the contract stream, pays the full
   streamed-pass cost, publishes warm entries on the way out;
2. **warm restart** — a fresh interpreter, same directory; must serve the
   identical stream with zero streamed passes, zero calls to ``fit``
   (m_0 loads from its entry, every m_n result reports
   ``model_cache_hit``) and bitwise-identical results (model θ, sample
   size, ε estimate);
3. **tampered restart** — every warm entry has its middle byte flipped
   first; the tier must quarantine every entry and transparently
   recompute and refit, again bitwise identical — corruption costs passes
   and fits, never answers.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_warm_cache.py [--smoke] [--check]
"""

from __future__ import annotations

import argparse
import glob
import multiprocessing
import os
import sys
import tempfile
import time

import numpy as np

from repro.core.contract import ApproximationContract
from repro.core.session import EstimationSession
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import higgs_like
from repro.evaluation.streaming import streaming_pass_count
from repro.models.logistic_regression import LogisticRegressionSpec


class CountedFit:
    """Wraps ``LogisticRegressionSpec.fit`` on the class to count its calls.

    Patching the class (not a subclass or an instance attribute) leaves the
    spec digest, and with it every warm key, unchanged.
    """

    calls = 0

    @classmethod
    def install(cls):
        fit = LogisticRegressionSpec.fit

        def counted(self, *args, **kwargs):
            cls.calls += 1
            return fit(self, *args, **kwargs)

        LogisticRegressionSpec.fit = counted


def serve_worker(warm_dir, config, queue):
    """Spawn target: one serving process against a shared warm directory.

    Rebuilds the deterministic workload from ``config``, serves the
    contract stream, and reports result rows, the streamed-pass delta
    around serving (construction excluded), wall time, tier counters,
    whether every result came without an m_n fit, and how many times
    ``fit`` ran in the process, session construction included.
    """
    CountedFit.install()
    rows_n, features, initial, k, contracts = config
    splits = train_holdout_test_split(
        higgs_like(n_rows=rows_n, n_features=features, seed=13),
        SplitSpec(holdout_fraction=0.2, test_fraction=0.1),
        rng=np.random.default_rng(9),
    )
    session = EstimationSession(
        LogisticRegressionSpec(regularization=1e-3),
        splits.train,
        splits.holdout,
        warm_cache=warm_dir,
        rng=0,
        n_parameter_samples=k,
        initial_sample_size=initial,
    )
    passes_before = streaming_pass_count()
    start = time.perf_counter()
    rows = []
    no_fit = True
    for epsilon, delta in contracts:
        result = session.train_to(ApproximationContract(epsilon, delta))
        rows.append(
            (
                result.model.theta.tobytes(),
                float(result.estimated_epsilon),
                int(result.sample_size),
            )
        )
        no_fit &= result.used_initial_model or result.metadata["model_cache_hit"]
    seconds = time.perf_counter() - start
    passes = streaming_pass_count() - passes_before
    tier = session.warm_cache
    tier.flush()
    stats = tier.stats()
    queue.put(
        (rows, passes, seconds, stats.writes, stats.quarantined, no_fit, CountedFit.calls)
    )


def run_process(warm_dir, config):
    """Run one serving generation in its own interpreter (a true restart)."""
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    worker = ctx.Process(target=serve_worker, args=(warm_dir, config, queue))
    worker.start()
    outcome = queue.get(timeout=600)
    worker.join(timeout=600)
    if worker.exitcode != 0:
        raise RuntimeError(f"serving worker exited with code {worker.exitcode}")
    return outcome


def tamper(warm_dir):
    """Flip the middle byte of every published warm entry; return how many.

    Each entry's digest covers the whole file, so any byte will do.
    """
    paths = glob.glob(os.path.join(warm_dir, "warm-*.entry"))
    for path in paths:
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
    return len(paths)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--features", type=int, default=16)
    parser.add_argument("--initial", type=int, default=1_000, help="initial sample n0")
    parser.add_argument("--k", type=int, default=48, help="parameter samples")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast configuration for CI (2.5k rows, k=24)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "exit non-zero unless the warm restart serves with zero streamed "
            "passes and calls fit zero times, every generation is bitwise "
            "identical, and every tampered entry is quarantined and recomputed"
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows, args.features = 2_500, 10
        args.initial, args.k = 250, 24

    contracts = ((0.015, 0.05), (0.010, 0.05), (0.015, 0.05))
    config = (args.rows, args.features, args.initial, args.k, contracts)

    with tempfile.TemporaryDirectory(prefix="repro-warm-bench-") as warm_dir:
        cold_rows, cold_passes, cold_s, cold_writes, _, _, cold_fits = run_process(
            warm_dir, config
        )
        entries = len(glob.glob(os.path.join(warm_dir, "warm-*.entry")))
        model_entries = len(glob.glob(os.path.join(warm_dir, "warm-model-*.entry")))
        warm_rows, warm_passes, warm_s, _, warm_quarantined, warm_no_fit, warm_fits = (
            run_process(warm_dir, config)
        )
        tampered_entries = tamper(warm_dir)
        tam_rows, tam_passes, tam_s, _, tam_quarantined, tam_no_fit, tam_fits = (
            run_process(warm_dir, config)
        )

    warm_identical = warm_rows == cold_rows
    tampered_identical = tam_rows == cold_rows

    print(
        f"{len(contracts)} contracts over higgs_like({args.rows}x{args.features}), "
        f"n0={args.initial}, k={args.k}, {entries} warm entries "
        f"({cold_writes} writes)"
    )
    header = (
        f"{'generation':<20}{'passes':>8}{'seconds':>9}{'identical':>11}"
        f"{'quarantined':>13}{'fits':>6}"
    )
    print(header)
    print("-" * len(header))
    for label, passes, seconds, identical, quarantined, fits in (
        ("cold (empty dir)", cold_passes, cold_s, True, 0, cold_fits),
        ("warm restart", warm_passes, warm_s, warm_identical, warm_quarantined,
         warm_fits),
        ("tampered restart", tam_passes, tam_s, tampered_identical, tam_quarantined,
         tam_fits),
    ):
        print(
            f"{label:<20}{passes:>8}{seconds:>9.2f}"
            f"{str(identical):>11}{quarantined:>13}{fits:>6}"
        )
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(
        f"warm restart: {cold_passes} -> {warm_passes} streamed passes "
        f"({speedup:.1f}x serving speedup); tampering {tampered_entries} "
        f"entries cost {tam_passes} recompute passes, never a wrong answer"
    )

    if args.check:
        failures = []
        if cold_passes <= 0:
            failures.append("cold generation streamed no passes (workload trivial?)")
        if cold_writes < 4 or entries < 4 or model_entries < 2:
            failures.append(
                f"cold generation published {entries} entries, {model_entries} "
                f"of them models ({cold_writes} writes); expected the diff, "
                "size, m_0 and m_n artifacts"
            )
        if warm_passes != 0:
            failures.append(
                f"warm restart streamed {warm_passes} passes (expected zero)"
            )
        if not warm_no_fit:
            failures.append("warm restart fitted an m_n (expected model_cache_hit)")
        if warm_fits != 0:
            failures.append(f"warm restart called fit {warm_fits} times (expected zero)")
        if not warm_identical:
            failures.append("warm restart results differ from the cold run")
        if warm_quarantined:
            failures.append(
                f"warm restart quarantined {warm_quarantined} healthy entries"
            )
        if tam_quarantined != tampered_entries:
            failures.append(
                f"tampered restart quarantined {tam_quarantined} of "
                f"{tampered_entries} corrupt entries"
            )
        if tam_passes <= 0:
            failures.append("tampered restart recomputed nothing")
        if tam_no_fit:
            failures.append("tampered restart served a corrupt model without a refit")
        if not tampered_identical:
            failures.append("tampered restart surfaced a wrong answer")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            f"OK: restart served {len(contracts)} contracts with zero streamed "
            f"passes and zero fits, bitwise identical; {tam_quarantined} "
            "corrupt entries quarantined and recomputed correctly"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
