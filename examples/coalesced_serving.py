"""Coalesced contract serving: one streaming pass answers many callers.

The coalescing tier (`repro.serving`) sits in front of the registry.  A
`CoalescingService` holds one `ContractBatcher` per session key; concurrent
`train_to()` calls for contracts that may need a size search are collected
over a short batching window into one batch (answers and size-cached
repeats have no search to share and dispatch at once), identical (ε, δ)
contracts are deduplicated into single-flight followers, and the distinct
survivors are dispatched as ONE fused size search — every round of the bracketing search evaluates the
union of all active searches' candidate sizes at once.  For this linear
regression workload no round streams the holdout: every Lin diff comes
from the d × d holdout factor, built in one streamed pass and memoised;
for LR, ME and Poisson each round is one streamed pass.  Results are
demultiplexed per caller and are
bitwise-identical to serial execution: coalescing changes how many rounds
run, never what any caller gets back.

The example fires 8 concurrent ``train_to`` requests (duplicates + distinct
confidence levels) through the asyncio front-end, verifies every answer
against a serial baseline on an identically seeded session, and prints the
batching statistics that ``registry.stats()`` rolls up.

Run with::

    python examples/coalesced_serving.py

Set ``REPRO_EXAMPLES_SMOKE=1`` for the scaled-down CI configuration.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from repro import (
    ApproximationContract,
    CoalescingService,
    EstimationSession,
    LinearRegressionSpec,
)
from repro.data import gas_like, train_holdout_test_split
from repro.data.splits import SplitSpec

SMOKE = bool(os.environ.get("REPRO_EXAMPLES_SMOKE"))
BATCH = 8


async def serve_batch(service, contracts):
    """All requests issued concurrently — they land in one batching window."""
    return await asyncio.gather(
        *(service.train_to("gas-sensors", contract) for contract in contracts)
    )


def main() -> None:
    rows = 20_000 if SMOKE else 120_000
    print(f"Generating a gas-sensor-like workload ({rows} rows, 24 features)...")
    data = gas_like(n_rows=rows, n_features=24, seed=301)
    splits = train_holdout_test_split(
        data,
        SplitSpec(holdout_fraction=0.45, test_fraction=0.05),
        rng=np.random.default_rng(302),
    )
    spec = LinearRegressionSpec.with_estimated_noise(splits.train, regularization=1e-3)
    session_kwargs = dict(
        initial_sample_size=500 if SMOKE else 1_000,
        n_parameter_samples=64 if SMOKE else 128,
        rng=0,  # same seed => bitwise-identical sessions for the baseline
    )

    service = CoalescingService(window_ms=250.0, max_batch=BATCH)
    # Registering the key once also warms the session (trains m_0).
    baseline_session = service.batcher(
        "gas-sensors", spec, train=splits.train, holdout=splits.holdout,
        **session_kwargs,
    ).session

    # What ε does the initial model already achieve?  Place the workload
    # around it: tight contracts need a real size search, loose ones don't.
    epsilon0 = baseline_session.answer(
        ApproximationContract(epsilon=0.5, delta=0.05)
    ).estimate.epsilon
    tight = 0.3 * epsilon0
    contracts = [
        ApproximationContract(epsilon=tight, delta=0.05),
        ApproximationContract(epsilon=tight, delta=0.04),
        ApproximationContract(epsilon=tight, delta=0.05),  # duplicate
        ApproximationContract(epsilon=tight, delta=0.06),
        ApproximationContract(epsilon=tight, delta=0.045),
        ApproximationContract(epsilon=tight, delta=0.05),  # duplicate
        ApproximationContract(epsilon=0.9 * epsilon0, delta=0.05),
        ApproximationContract(epsilon=0.8 * epsilon0, delta=0.10),
    ]

    start = time.perf_counter()
    results = asyncio.run(serve_batch(service, contracts))
    elapsed = time.perf_counter() - start

    # Serial baseline on a fresh, identically seeded session.
    serial_session = EstimationSession(
        spec, splits.train, splits.holdout, **session_kwargs
    )
    serial_start = time.perf_counter()
    serial = [serial_session.train_to(contract) for contract in contracts]
    serial_elapsed = time.perf_counter() - serial_start

    mismatches = sum(
        1
        for fused, lone in zip(results, serial)
        if fused.sample_size != lone.sample_size
        or not np.array_equal(fused.model.theta, lone.model.theta)
        or fused.estimated_epsilon != lone.estimated_epsilon
    )
    print(
        f"\n{BATCH} concurrent train_to requests in {elapsed:.3f}s "
        f"(serial loop: {serial_elapsed:.3f}s, {serial_elapsed / elapsed:.2f}x)"
    )
    print(f"bitwise-identical to serial: {mismatches == 0}")

    stats = service.batching_stats()
    print(
        f"\nbatcher: {stats.requests} request(s) in {stats.batches} batch(es), "
        f"{stats.coalesced_requests} deduplicated in-window"
    )
    print(
        f"size-search rounds: {stats.fused_passes} fused vs "
        f"{stats.serial_passes} serial-equivalent "
        f"({stats.passes_saved} saved, window occupancy "
        f"{stats.window_occupancy:.1f} req/window)"
    )

    fleet = service.stats()
    print(
        f"registry roll-up: {fleet.sessions} session(s), "
        f"{fleet.bytes}/{fleet.max_total_bytes} budget bytes"
    )
    service.close()


if __name__ == "__main__":
    main()
