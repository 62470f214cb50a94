"""Differential property: one size-search path, whatever the batch shape.

A fused ``train_to_many`` over any multiset of contracts, in any arrival
order, must return exactly what ``train_to`` returns per contract on a
same-seed fresh session — θ bytes, sample size, ε estimate and probe
schedule — and its serial pass accounting must equal the sum of each
contract's own one-contract search rounds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contract import ApproximationContract
from repro.core.session import EstimationSession
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import higgs_like
from repro.models.logistic_regression import LogisticRegressionSpec

SPEC = LogisticRegressionSpec(regularization=1e-3)

#: Tight contracts that need a search, one the initial model already meets.
POOL = [
    ApproximationContract(epsilon=0.010, delta=0.05),
    ApproximationContract(epsilon=0.015, delta=0.05),
    ApproximationContract(epsilon=0.020, delta=0.10),
    ApproximationContract(epsilon=0.500, delta=0.05),
]


@pytest.fixture(scope="module")
def splits():
    return train_holdout_test_split(
        higgs_like(n_rows=2_000, n_features=8, seed=31),
        SplitSpec(holdout_fraction=0.2, test_fraction=0.1),
        rng=np.random.default_rng(31),
    )


def fresh_session(splits, seed: int, probe_batch: int) -> EstimationSession:
    return EstimationSession(
        SPEC,
        splits.train,
        splits.holdout,
        initial_sample_size=200,
        n_parameter_samples=16,
        probe_batch=probe_batch,
        rng=seed,
        warm_cache=False,
    )


def fingerprint(result):
    return (
        result.model.theta.tobytes(),
        result.sample_size,
        result.estimated_epsilon,
        result.metadata.get("size_search_probes"),
    )


@settings(max_examples=12, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=3),
    probe_batch=st.sampled_from([1, 3]),
)
def test_fused_dispatch_equals_one_contract_calls(splits, data, seed, probe_batch):
    multiset = data.draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=6))
    arrivals = data.draw(st.permutations(multiset))

    fused = fresh_session(splits, seed, probe_batch).train_to_many(arrivals)

    serial = fresh_session(splits, seed, probe_batch)
    assert [fingerprint(result) for result in fused.results] == [
        fingerprint(serial.train_to(contract)) for contract in arrivals
    ]

    # Each distinct contract's own search, run alone on a fresh session.
    distinct = list(dict.fromkeys(arrivals))
    own_rounds = [
        fresh_session(splits, seed, probe_batch)
        .train_to_many([contract])
        .fused_search_passes
        for contract in distinct
    ]
    assert fused.serial_search_passes == sum(own_rounds)
    assert fused.fused_search_passes <= fused.serial_search_passes
