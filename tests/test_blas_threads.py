"""The BLAS thread count never changes a fitted θ.

OpenBLAS may split a long reduction across its threads, and the partial
sums then meet in an order that depends on the thread count.  The fit path
keeps every BLAS reduction over rows to 4,096-row blocks, so a fit must
return the same θ bytes at one and at two threads.  Each side runs in a
fresh interpreter, because BLAS reads its thread count once, at load.

The data are built without BLAS (``(X * w).sum(axis=1)`` and
``np.einsum``): labels made with ``X @ w`` can themselves differ between
thread counts.  17,038 rows is a size at which ``X @ θ`` and ``Xᵀr`` over
the whole sample differed between one and two threads.
"""

from __future__ import annotations

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
print(json.dumps(thetas))
"""


def fitted_thetas(threads: int) -> dict[str, str]:
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
    one, two = fitted_thetas(1), fitted_thetas(2)
    assert sorted(one) == ["lin", "lr", "me", "poisson", "ppca"]
    differing = [family for family in one if one[family] != two[family]]
    assert differing == []
