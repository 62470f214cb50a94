"""Serving across restarts with the cross-process warm cache tier.

A serving process answers repeat contracts from its in-memory caches, but
those die with the process.  This example wires a
:class:`~repro.WarmCacheTier` beneath a session's caches and simulates a
restart: the second "process generation" is a brand-new session (fresh
in-memory caches, fresh RNG stream) pointed at the same warm directory,
and it answers the same contract stream with **zero streamed holdout
passes** and no model fit at all — every expensive artifact (the initial
model m_0, sorted difference vectors, the size search, the trained model
m_n) is loaded from digest-verified entry files instead of recomputed.
A final section flips one byte in an entry to show the tamper story: the
corrupt entry is quarantined and transparently recomputed, so corruption
costs passes or fits, never answers.

In production the directory is shared by *co-located processes* too — the
entries are content-addressed and published atomically, so concurrent
writers are benign (see ``benchmarks/bench_warm_cache.py`` for the true
multi-process version).

Run with::

    python examples/warm_cache_serving.py

Set ``REPRO_EXAMPLES_SMOKE=1`` for the scaled-down CI configuration.
"""

from __future__ import annotations

import glob
import os
import tempfile
import time

import numpy as np

from repro import ApproximationContract, EstimationSession, LogisticRegressionSpec
from repro.data import higgs_like, train_holdout_test_split
from repro.data.store import shared_warm_cache
from repro.evaluation.streaming import streaming_pass_count

SMOKE = bool(os.environ.get("REPRO_EXAMPLES_SMOKE"))

CONTRACTS = (
    ApproximationContract(epsilon=0.015, delta=0.05),
    ApproximationContract(epsilon=0.010, delta=0.05),
    ApproximationContract(epsilon=0.015, delta=0.05),  # repeat
)


class CountedLogisticRegression(LogisticRegressionSpec):
    """Logistic regression that counts its fits, m_0's included."""

    fits = 0

    def fit(self, *args, **kwargs):
        CountedLogisticRegression.fits += 1
        return super().fit(*args, **kwargs)


def serve_generation(label: str, warm_dir: str, splits) -> list[tuple]:
    """One 'process generation': a fresh session against the warm dir.

    Every generation resolves the directory to the same process-wide tier,
    whose counters are cumulative, so a generation reports the change in
    the tier's snapshot from before its session opens to after its last
    write lands.
    """
    tier = shared_warm_cache(warm_dir)
    before = tier.stats()
    fits_before = CountedLogisticRegression.fits
    session = EstimationSession(
        CountedLogisticRegression(regularization=1e-3),
        splits.train,
        splits.holdout,
        warm_cache=tier,
        rng=0,
        n_parameter_samples=24 if SMOKE else 64,
        initial_sample_size=250 if SMOKE else 1_000,
    )
    passes_before = streaming_pass_count()
    start = time.perf_counter()
    rows = []
    for contract in CONTRACTS:
        result = session.train_to(contract)
        rows.append(
            (result.model.theta.tobytes(), result.estimated_epsilon, result.sample_size)
        )
        print(
            f"  ε={contract.epsilon:.3f}: n={result.sample_size:>5}  "
            f"ε̂={result.estimated_epsilon:.4f}"
        )
    tier.flush()
    after = tier.stats()
    print(
        f"{label}: {streaming_pass_count() - passes_before} streamed passes, "
        f"{CountedLogisticRegression.fits - fits_before} fits, "
        f"{time.perf_counter() - start:.2f}s  "
        f"(warm hits={after.hits - before.hits} "
        f"writes={after.writes - before.writes} "
        f"quarantined={after.quarantined - before.quarantined})\n"
    )
    return rows


def main() -> None:
    rows = 2_500 if SMOKE else 20_000
    print(f"Generating a HIGGS-like workload ({rows} rows)...")
    splits = train_holdout_test_split(
        higgs_like(n_rows=rows, n_features=10 if SMOKE else 16, seed=13),
        rng=np.random.default_rng(0),
    )

    with tempfile.TemporaryDirectory(prefix="blinkml-warm-") as warm_dir:
        print("generation 1 (cold: empty warm directory)")
        cold = serve_generation("cold", warm_dir, splits)
        entries = glob.glob(os.path.join(warm_dir, "warm-*.entry"))
        print(f"published {len(entries)} warm entries under {warm_dir}\n")

        print("generation 2 (restart: fresh session, same directory)")
        warm = serve_generation("warm restart", warm_dir, splits)
        print(f"restart answers bitwise identical to cold run: {warm == cold}\n")

        # Tamper with one entry: the digest check quarantines it and the
        # answer is recomputed — corruption never surfaces a wrong result.
        victim = sorted(entries)[0]
        blob = bytearray(open(victim, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(victim, "wb") as handle:
            handle.write(bytes(blob))
        print("generation 3 (restart after flipping one byte in an entry)")
        tampered = serve_generation("tampered restart", warm_dir, splits)
        print(f"tampered restart still bitwise identical: {tampered == cold}")


if __name__ == "__main__":
    main()
