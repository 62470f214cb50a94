"""The BLAS thread count never changes a fitted θ or a Lin answer.

OpenBLAS may split a long reduction across its threads, and the partial
sums then meet in an order that depends on the thread count.  The fit path
keeps every BLAS reduction over rows to 4,096-row blocks, so a fit must
return the same θ bytes at one and at two threads.  Each side runs in a
fresh interpreter, because BLAS reads its thread count once, at load.

The data are built without BLAS (``(X * w).sum(axis=1)`` and
``np.einsum``): labels made with ``X @ w`` can themselves differ between
thread counts.  17,038 rows is a size at which ``X @ θ`` and ``Xᵀr`` over
the whole sample differed between one and two threads.

A Lin ``BlinkML.train`` takes every diff from the holdout factor, one QR
per block of at most 4,096 rows.  Its 16,384-row holdout is a size at which
one QR over the whole holdout gave other bytes at two threads than at one,
so the factor's bytes, n, θ and ε̂ must match at both thread counts, and
at zero and two streaming workers.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = """
import json
import numpy as np
from repro.data.dataset import Dataset
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.models.max_entropy import MaxEntropySpec
from repro.models.poisson_regression import PoissonRegressionSpec
from repro.models.ppca import PPCASpec

n, K = 17_038, 10
rng = np.random.default_rng(7)
thetas = {}
for family in ["lin", "lr", "poisson", "me", "ppca"]:
    d = 57 if family in ("lin", "lr", "poisson") else 36
    X = rng.normal(size=(n, d))
    z = (X * (rng.normal(size=d) / np.sqrt(d))).sum(axis=1)
    if family == "lin":
        spec, y = LinearRegressionSpec(), z + rng.normal(size=n)
    elif family == "lr":
        spec, y = LogisticRegressionSpec(), (z + rng.logistic(size=n) > 0).astype(np.int64)
    elif family == "poisson":
        spec, y = PoissonRegressionSpec(), rng.poisson(np.exp(0.5 * z)).astype(np.float64)
    elif family == "me":
        scores = np.einsum("nd,dk->nk", X, rng.normal(size=(d, K)) / np.sqrt(d))
        spec, y = MaxEntropySpec(n_classes=K), np.argmax(scores + rng.gumbel(size=(n, K)), axis=1)
    else:
        latent = np.einsum("nq,dq->nd", rng.normal(size=(n, K)), rng.normal(size=(d, K)))
        spec, X, y = PPCASpec(n_factors=K), latent + X, None
    thetas[family] = spec.fit(Dataset(X, y)).theta.tobytes().hex()

from repro.core.contract import ApproximationContract
from repro.core.coordinator import BlinkML
from repro.evaluation.streaming import StreamingConfig, holdout_factor

n_train, n_holdout, d = 30_000, 16_384, 32
X = rng.normal(size=(n_train + n_holdout, d))
y = (X * (rng.normal(size=d) / np.sqrt(d))).sum(axis=1) + rng.normal(size=n_train + n_holdout)
lin_trains = {}
for workers in (0, 2):
    # A fresh holdout object per run, so each run takes its own factor pass.
    holdout = Dataset(X[n_train:], y[n_train:])
    result = BlinkML(
        LinearRegressionSpec(), initial_sample_size=1_500, seed=100,
        streaming=StreamingConfig(n_workers=workers),
    ).train(
        Dataset(X[:n_train], y[:n_train]),
        holdout,
        ApproximationContract(epsilon=0.03, delta=0.05),
    )
    lin_trains[workers] = [
        result.sample_size,
        result.model.theta.tobytes().hex(),
        float.hex(result.estimated_epsilon),
        holdout_factor(holdout).tobytes().hex(),
    ]
print(json.dumps({"fits": thetas, "lin_trains": lin_trains}))
"""


@functools.lru_cache(maxsize=None)
def probe(threads: int) -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout)


def test_fit_theta_does_not_depend_on_the_blas_thread_count():
    one, two = probe(1)["fits"], probe(2)["fits"]
    assert sorted(one) == ["lin", "lr", "me", "poisson", "ppca"]
    differing = [family for family in one if one[family] != two[family]]
    assert differing == []


def test_lin_train_does_not_depend_on_the_blas_thread_or_worker_count():
    one, two = probe(1)["lin_trains"], probe(2)["lin_trains"]
    assert one == two
    assert one["0"] == one["2"]
    # The contract needs a size search, so the diffs decide n.
    assert 1_500 < one["0"][0] < 30_000
