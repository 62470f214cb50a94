"""Serving contracts from an out-of-core shard store.

The paper's premise is that the full dataset is too large to touch more
than necessary — this example takes that literally.  The training and
holdout sets are written once as directories of memory-mapped ``.npy``
shards (`ShardStore.write`), and everything downstream runs against the
`ShardedDataset` views:

* the session's initial sample is gathered *by index* from the training
  shards (only the drawn rows ever enter memory);
* every holdout evaluation streams shard-snapped, zero-copy blocks through
  the sharded diff engine, so resident memory is O(k · block) — a constant
  factor of one block, not of N;
* the registry fingerprints both stores straight from their manifest
  digests (equal to the in-memory digests by construction), so stale data
  invalidation works without materialising a single row.

Run with::

    python examples/out_of_core_serving.py

Set ``REPRO_EXAMPLES_SMOKE=1`` for the scaled-down CI configuration.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro import ApproximationContract, LogisticRegressionSpec, SessionRegistry
from repro.data import ShardStore, higgs_like, train_holdout_test_split

SMOKE = bool(os.environ.get("REPRO_EXAMPLES_SMOKE"))


def main() -> None:
    rows = 12_000 if SMOKE else 200_000
    shard_rows = 1_000 if SMOKE else 16_384
    print(f"Generating a HIGGS-like workload ({rows} rows, 24 features)...")
    data = higgs_like(n_rows=rows, n_features=24, seed=13)
    splits = train_holdout_test_split(data, rng=np.random.default_rng(0))

    with tempfile.TemporaryDirectory(prefix="blinkml-store-") as root:
        # One-time ETL: persist both splits as shard stores.  Real
        # deployments would build these with ShardStoreWriter.append from a
        # scan cursor; the write path never buffers more than one shard.
        start = time.perf_counter()
        train_store = ShardStore.write(
            splits.train, os.path.join(root, "train"), shard_rows=shard_rows
        )
        holdout_store = ShardStore.write(
            splits.holdout, os.path.join(root, "holdout"), shard_rows=shard_rows
        )
        print(
            f"wrote {train_store.n_shards} train + {holdout_store.n_shards} "
            f"holdout shards in {time.perf_counter() - start:.2f}s "
            f"(digest {holdout_store.manifest.content_digest[:12]}...)"
        )
        holdout_store.verify()
        print("holdout store verified (per-shard + manifest digests)\n")

        train, holdout = train_store.dataset(), holdout_store.dataset()

        registry = SessionRegistry()  # default fleet bounds from repro.config
        spec = LogisticRegressionSpec(regularization=1e-3)
        start = time.perf_counter()
        session = registry.get_or_create(
            "higgs-ooc", spec, train, holdout,
            initial_sample_size=1_000 if SMOKE else 5_000,
            n_parameter_samples=32 if SMOKE else 128,
            rng=0,
        )
        print(
            "session opened from shards (m_0 trained on rows gathered by "
            f"index) in {time.perf_counter() - start:.2f}s"
        )

        # A stream of contracts: every holdout evaluation underneath is
        # zero-copy memory-mapped blocks, never the materialised matrix.
        for epsilon in (0.10, 0.05, 0.03, 0.02):
            contract = ApproximationContract(epsilon=epsilon, delta=0.05)
            start = time.perf_counter()
            result = session.train_to(contract)
            print(
                f"  ε={epsilon:.2f}: n={result.sample_size:>7}  "
                f"ε̂={result.estimated_epsilon:.4f}  "
                f"initial-model={result.used_initial_model!s:<5}  "
                f"({time.perf_counter() - start:.2f}s)"
            )

        # Fingerprint invalidation without materialisation: a re-offered
        # store with identical content hits, different content would miss.
        again = registry.get_or_create(
            "higgs-ooc", spec, train_store.dataset(), holdout_store.dataset(),
            rng=0,
        )
        stats = registry.stats()
        print(
            f"\nre-offered stores: same session={again is session}  "
            f"registry hits={stats.hits} misses={stats.misses}"
        )
        for info in stats.per_session:
            print(
                f"  {info.key}: cache bytes={info.bytes}  "
                f"share={stats.session_budget_bytes}"
            )


if __name__ == "__main__":
    main()
