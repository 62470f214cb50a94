"""No environment variable changes an answer.

``repro.config`` splits its constants by one rule: the environment may
tune capacity, concurrency, latency and paths, but never an answer.  This
test runs one seeded probe in two fresh interpreters and compares a digest
of every answer's n, θ bytes, ε̂ and size-search probe schedule:

* once with every ``DEFAULT_*`` and ``REPRO_*`` variable scrubbed;
* once with every env knob at a valid non-default extreme, the warm tier
  enabled, and the names of the retired answer knobs set to values that
  moved answers while they were still read.

The probe reaches every fixed default: it relies on the default k, δ, split
fractions, block and shard sizes, probe batch and optimiser settings, one
session keeps the default n₀ and runs InverseGradients, and the service's
LR key has d ≥ 100, so its fits take L-BFGS.

A knob's invalid values fall back to its built-in default; for the float
knobs that includes ``nan`` and ``±inf``, checked in a fresh interpreter
per value.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CONFIG_PATH = Path(repro.__file__).resolve().parent / "config.py"

#: A valid, non-default value for every env knob in ``repro/config.py``;
#: a new knob must declare one here.  Caches hold one entry (or one byte),
#: the registry one session, the batcher dispatches every request alone,
#: and housekeeping evicts sessions between the probe's requests.
KNOB_EXTREMES = {
    "DEFAULT_STREAMING_WORKERS": "2",
    "DEFAULT_SESSION_DIFF_CACHE_ENTRIES": "1",
    "DEFAULT_SESSION_DIFF_CACHE_BYTES": "1",
    "DEFAULT_SESSION_MODEL_CACHE_ENTRIES": "1",
    "DEFAULT_SESSION_SIZE_CACHE_ENTRIES": "1",
    "DEFAULT_REGISTRY_MAX_SESSIONS": "1",
    "DEFAULT_REGISTRY_CACHE_BYTES": str(2 * 1024 * 1024),
    "DEFAULT_REGISTRY_MIN_SESSION_BYTES": str(2 * 1024 * 1024),
    "DEFAULT_WARM_CACHE_MAX_BYTES": "1",
    "DEFAULT_COALESCE_WINDOW_MS": "0",
    "DEFAULT_COALESCE_MAX_BATCH": "1",
    "DEFAULT_COALESCE_MAX_QUEUE": "8",
    "DEFAULT_SERVICE_HOUSEKEEPING_SECONDS": "0.05",
    "DEFAULT_SERVICE_IDLE_EVICT_SECONDS": "0.1",
}

#: The names the answer-feeding defaults were once read from, each with a
#: value that moved the probe's digest while it was read.
RETIRED_KNOBS = {
    "DEFAULT_INITIAL_SAMPLE_SIZE": "300",
    "DEFAULT_NUM_PARAMETER_SAMPLES": "64",
    "DEFAULT_DELTA": "0.2",
    "DEFAULT_FINITE_DIFFERENCE_EPS": "1e-3",
    "DEFAULT_HOLDOUT_FRACTION": "0.15",
    "DEFAULT_TEST_FRACTION": "0.1",
    "DEFAULT_HOLDOUT_BLOCK_ROWS": "256",
    "DEFAULT_STORE_SHARD_ROWS": "512",
    "DEFAULT_SIZE_SEARCH_PROBE_BATCH": "1",
    "DEFAULT_MAX_ITERATIONS": "5",
    "DEFAULT_GRADIENT_TOLERANCE": "1e-4",
    "DEFAULT_LBFGS_MEMORY": "2",
}

PROBE = """
import hashlib
import tempfile

import numpy as np

from repro.core.contract import ApproximationContract
from repro.core.coordinator import BlinkML
from repro.core.session import EstimationSession
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.store import ShardStore
from repro.data.synthetic import gas_like, higgs_like
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.serving.service import CoalescingService

digest = hashlib.blake2b(digest_size=16)


def record(result):
    digest.update(f"{result.sample_size}|{result.estimated_epsilon.hex()}|".encode())
    digest.update(repr(result.metadata.get("size_search_probes")).encode())
    digest.update(np.ascontiguousarray(result.model.theta).tobytes())


def split(data, seed):
    return train_holdout_test_split(data, SplitSpec(), rng=np.random.default_rng(seed))


lr_spec = LogisticRegressionSpec(regularization=1e-3)
lin_spec = LinearRegressionSpec(regularization=1e-3)
lr = split(higgs_like(n_rows=6_000, n_features=10, seed=5), 5)
wide = split(higgs_like(n_rows=3_000, n_features=120, seed=10), 10)
lin = split(gas_like(n_rows=16_000, n_features=10, seed=6), 6)

blink = BlinkML(lr_spec, initial_sample_size=500, seed=7)
for accuracy in (0.9, 0.95):
    record(blink.train(lr.train, lr.holdout, ApproximationContract.from_accuracy(accuracy)))

with tempfile.TemporaryDirectory() as directory:
    holdout = ShardStore.write(lin.holdout, directory).dataset()
    session = EstimationSession(
        lin_spec, lin.train, holdout, statistics_method="inverse_gradients", rng=8
    )
    for epsilon in (0.05, 0.015, 0.05, 0.012, 0.015):
        record(session.train_to(ApproximationContract(epsilon=epsilon)))

service = CoalescingService()
try:
    for key, spec, splits, epsilon in (
        ("lr", lr_spec, wide, 0.1),
        ("lin", lin_spec, lin, 0.2),
        ("lr", lr_spec, wide, 0.05),
        ("lin", lin_spec, lin, 0.2),
        ("lr", lr_spec, wide, 0.1),
    ):
        record(
            service.train_to_sync(
                key,
                ApproximationContract(epsilon=epsilon),
                spec=spec,
                train=splits.train,
                holdout=splits.holdout,
                initial_sample_size=500,
                rng=9,
            )
        )
finally:
    service.close()
print(digest.hexdigest())
"""


def env_knobs() -> set[str]:
    tree = ast.parse(CONFIG_PATH.read_text(encoding="utf-8"))
    return {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("DEFAULT_")
    }


def float_knob_defaults() -> dict[str, float]:
    """Each ``_env_float`` knob's built-in default, read from the source."""
    tree = ast.parse(CONFIG_PATH.read_text(encoding="utf-8"))
    return {
        node.args[0].value: ast.literal_eval(node.args[1])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_env_float"
    }


def run_probe(overrides: dict[str, str], probe: str = PROBE) -> str:
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith(("DEFAULT_", "REPRO_"))
    }
    env.update(overrides)
    source_root = str(CONFIG_PATH.parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return completed.stdout


def test_every_env_knob_has_an_extreme():
    assert set(KNOB_EXTREMES) == env_knobs()
    assert not set(RETIRED_KNOBS) & env_knobs()


def test_no_environment_variable_changes_an_answer(tmp_path):
    clean = run_probe({})
    tuned = run_probe(
        {
            **KNOB_EXTREMES,
            **RETIRED_KNOBS,
            "DEFAULT_WARM_CACHE_DIR": str(tmp_path / "retired-warm"),
            "REPRO_WARM_CACHE_DIR": str(tmp_path / "warm"),
        }
    )
    assert tuned == clean


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_float_knobs_fall_back_to_their_defaults(raw):
    """A non-finite window or period would reach ``Condition.wait`` and
    kill the thread waiting on it, so it reads as the built-in default."""
    defaults = float_knob_defaults()
    assert set(defaults) == {
        "DEFAULT_COALESCE_WINDOW_MS",
        "DEFAULT_SERVICE_HOUSEKEEPING_SECONDS",
        "DEFAULT_SERVICE_IDLE_EVICT_SECONDS",
    }
    names = sorted(defaults)
    probe = (
        "from repro import config\n"
        f"print(repr([float(getattr(config, name)).hex() for name in {names!r}]))\n"
    )
    loaded = run_probe(dict.fromkeys(names, raw), probe)
    assert ast.literal_eval(loaded) == [float(defaults[name]).hex() for name in names]
