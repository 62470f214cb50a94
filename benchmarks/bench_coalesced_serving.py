"""Benchmark: request-coalescing front-end vs serial contract serving.

A serving deployment receives B concurrent ``train_to`` requests against
one session — duplicates (identical (ε, δ) from different clients) mixed
with distinct-but-related contracts (same ε at several confidence levels,
plus loose contracts the initial model already satisfies).  This
benchmark measures what the coalescing tier (``repro.serving``) is
responsible for:

* **streamed passes** — the fused lockstep search evaluates every active
  search's round candidates as one union pass, so the B-request batch
  must complete in *strictly fewer* streamed passes than B serial calls;
  duplicates must coalesce to *zero* extra passes (a batch of B identical
  contracts costs exactly the passes of one serial call);
* **throughput** — end-to-end wall-clock through a :class:`ContractBatcher`
  (B threads, one batching window) vs the serial loop on an identically
  seeded session.  The gate requires >= 2x at the default B = 8;
* **identity** — every coalesced result must be bitwise identical to the
  serial baseline (same sample size, same θ, same ε estimate): coalescing
  buys passes, never answers;
* **window rule** — the B-request burst, whose contracts may all search,
  must leave as one batch, while a size-cached repeat sent afterwards
  through a fresh batcher with the same generous window must not wait it
  out (it has no search to share), returning in under 0.5 s.

The workload uses logistic regression on ``higgs_like`` rows.  Each of its
size-search rounds streams the holdout once, so the streamed evaluations
dominate, as they do for the large holdouts the streaming engine exists
for.  (A Lin search streams nothing after the holdout factor's one pass,
so Lin would leave coalescing little to save.)

Run standalone::

    PYTHONPATH=src python benchmarks/bench_coalesced_serving.py [--smoke] [--check]
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

import numpy as np

from repro.core.contract import ApproximationContract
from repro.core.session import EstimationSession
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import higgs_like
from repro.evaluation.streaming import streaming_pass_count
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.serving import ContractBatcher


def build_splits(n_rows: int, n_features: int):
    data = higgs_like(n_rows=n_rows, n_features=n_features, seed=301)
    return train_holdout_test_split(
        data,
        SplitSpec(holdout_fraction=0.45, test_fraction=0.05),
        rng=np.random.default_rng(302),
    )


def make_session(spec, splits, args) -> EstimationSession:
    return EstimationSession(
        spec,
        splits.train,
        splits.holdout,
        initial_sample_size=args.initial,
        n_parameter_samples=args.k,
        rng=0,
    )


def build_contracts(epsilon0: float, batch: int) -> list[ApproximationContract]:
    """B mixed contracts: duplicates + distinct δ at one tight ε + loose ε.

    Three duplicate pairs exercise in-window dedup; the tight-ε group's
    searches follow near-identical bracket trajectories (only the Lemma 2
    quantile position differs with δ), which is where cross-caller union
    passes save the most; the loose-ε members are answered by the initial
    model without any search at all.
    """
    tight = 0.25 * epsilon0
    mixed = [
        ApproximationContract(epsilon=tight, delta=0.05),
        ApproximationContract(epsilon=tight, delta=0.04),
        ApproximationContract(epsilon=tight, delta=0.05),  # duplicate
        ApproximationContract(epsilon=tight, delta=0.06),
        ApproximationContract(epsilon=tight, delta=0.045),
        ApproximationContract(epsilon=tight, delta=0.05),  # duplicate
        ApproximationContract(epsilon=0.9 * epsilon0, delta=0.05),
        ApproximationContract(epsilon=0.8 * epsilon0, delta=0.10),
    ]
    # Scale to the requested batch size by repeating the mix (extra
    # repeats are further duplicates, which is realistic serving traffic).
    return [mixed[i % len(mixed)] for i in range(batch)]


def run_serial(session, contracts):
    before = streaming_pass_count()
    start = time.perf_counter()
    results = [session.train_to(contract) for contract in contracts]
    return results, time.perf_counter() - start, streaming_pass_count() - before


def time_cached_repeat(session, contract, window_ms: float) -> float:
    """Seconds one size-cached repeat takes through a fresh batcher."""
    with ContractBatcher(session, window_ms=window_ms, name="repeat") as batcher:
        start = time.perf_counter()
        batcher.train_to(contract)
        return time.perf_counter() - start


def run_batched(session, contracts, window_ms: float):
    """All B contracts through one batcher from B threads, one window."""
    batcher = ContractBatcher(
        session, window_ms=window_ms, max_batch=len(contracts), name="bench"
    )
    barrier = threading.Barrier(len(contracts))
    results: list = [None] * len(contracts)
    errors: list = []

    def worker(index: int, contract: ApproximationContract) -> None:
        barrier.wait()
        try:
            results[index] = batcher.train_to(contract)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i, contract))
        for i, contract in enumerate(contracts)
    ]
    before = streaming_pass_count()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    passes = streaming_pass_count() - before
    batcher.close()
    if errors:
        raise errors[0]
    return results, elapsed, passes, batcher.stats()


def count_mismatches(serial_results, coalesced_results) -> int:
    mismatches = 0
    for lone, fused in zip(serial_results, coalesced_results):
        identical = (
            fused.sample_size == lone.sample_size
            and np.array_equal(fused.model.theta, lone.model.theta)
            and fused.estimated_epsilon == lone.estimated_epsilon
        )
        mismatches += 0 if identical else 1
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=240_000)
    parser.add_argument("--features", type=int, default=24)
    parser.add_argument("--initial", type=int, default=1_000, help="initial sample n0")
    parser.add_argument("--k", type=int, default=128, help="parameter samples")
    parser.add_argument("--batch", type=int, default=8, help="concurrent requests B")
    parser.add_argument("--window-ms", type=float, default=5_000.0,
                        help="batching window (generous: the window closes when full)")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast configuration for CI (120k rows)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "exit non-zero unless coalesced results are bitwise-identical to "
            "serial, duplicates add zero streamed passes, the mixed batch "
            "completes in strictly fewer passes than serial as one batch, "
            "batched throughput is >= 2x serial, and a size-cached repeat "
            "returns in < 0.5 s through a fresh batcher"
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows = 120_000

    splits = build_splits(args.rows, args.features)
    spec = LogisticRegressionSpec(regularization=1e-3)

    # Probe session: what ε does the initial model already achieve?  The
    # workload contracts are placed relative to it so the tight group needs
    # a genuine size search and the loose group does not.
    probe = make_session(spec, splits, args)
    epsilon0 = probe.answer(
        ApproximationContract(epsilon=0.5, delta=0.05)
    ).estimate.epsilon
    contracts = build_contracts(epsilon0, args.batch)

    # Duplicates-only coalescing: B identical contracts in one batch must
    # cost exactly the streamed passes of a single serial call.
    single_session = make_session(spec, splits, args)
    before = streaming_pass_count()
    single_session.train_to(contracts[0])
    single_passes = streaming_pass_count() - before
    duplicate_session = make_session(spec, splits, args)
    before = streaming_pass_count()
    duplicate_session.train_to_many([contracts[0]] * args.batch)
    duplicate_passes = streaming_pass_count() - before

    # Mixed batch: serial loop vs one coalesced window, fresh identically
    # seeded sessions.
    serial_results, serial_seconds, serial_passes = run_serial(
        make_session(spec, splits, args), contracts
    )
    batched_session = make_session(spec, splits, args)
    batched_results, batched_seconds, batched_passes, stats = run_batched(
        batched_session, contracts, args.window_ms
    )
    mismatches = count_mismatches(serial_results, batched_results)
    speedup = serial_seconds / batched_seconds
    # contracts[0] is a tight contract, so the burst ran its size search.
    repeat_seconds = time_cached_repeat(batched_session, contracts[0], args.window_ms)

    header = f"{'run':<22}{'seconds':>9}{'req/s':>8}{'passes':>8}"
    print(
        f"B={args.batch} concurrent contracts, {args.rows} rows, "
        f"{splits.holdout.n_rows} holdout rows, k={args.k}"
    )
    print(header)
    print("-" * len(header))
    for label, seconds, passes in (
        ("serial loop", serial_seconds, serial_passes),
        ("coalesced batch", batched_seconds, batched_passes),
    ):
        print(
            f"{label:<22}{seconds:>9.2f}{args.batch / seconds:>8.1f}{passes:>8}"
        )
    print(
        f"duplicates: 1 call = {single_passes} passes, "
        f"{args.batch} coalesced duplicates = {duplicate_passes} passes"
    )
    print(
        f"batcher: {stats.batches} batch(es), "
        f"{stats.coalesced_requests} in-window duplicates, "
        f"search passes fused={stats.fused_passes} serial={stats.serial_passes} "
        f"(saved {stats.passes_saved}), speedup {speedup:.2f}x, "
        f"{mismatches} mismatching results"
    )
    print(
        f"size-cached repeat through a fresh {args.window_ms:g} ms-window "
        f"batcher: {repeat_seconds:.4f}s"
    )

    if args.check:
        failures = []
        if mismatches:
            failures.append(
                f"{mismatches} coalesced results differ from the serial baseline"
            )
        if duplicate_passes != single_passes:
            failures.append(
                f"{args.batch} coalesced duplicates cost {duplicate_passes} "
                f"streamed passes; a single serial call costs {single_passes} "
                "(duplicates must add zero)"
            )
        if batched_passes >= serial_passes:
            failures.append(
                f"coalesced batch used {batched_passes} streamed passes, "
                f"not strictly fewer than serial's {serial_passes}"
            )
        if stats.batches != 1:
            failures.append(
                f"the B={args.batch} burst left in {stats.batches} batches, "
                "not one"
            )
        if speedup < 2.0:
            failures.append(
                f"batched throughput only {speedup:.2f}x serial (gate: >= 2x "
                f"at B={args.batch})"
            )
        if repeat_seconds >= 0.5:
            failures.append(
                f"a size-cached repeat took {repeat_seconds:.3f}s through a "
                f"{args.window_ms:g} ms-window batcher (gate: < 0.5 s; it has "
                "no search to share, so it must not wait out the window)"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            f"OK: bitwise-identical results, duplicates coalesce to zero "
            f"extra passes, {serial_passes} -> {batched_passes} streamed "
            f"passes in one batch, {speedup:.2f}x throughput, size-cached "
            f"repeat in {repeat_seconds:.4f}s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
