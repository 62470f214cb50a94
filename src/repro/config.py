"""Global defaults for the BlinkML reproduction.

One rule splits the constants below: the environment may tune capacity,
concurrency, latency and paths, but never an answer.

* **Fixed defaults** feed an answer — the returned n, θ_n or ε̂, or the
  size-search probe schedule recorded with it — so no environment
  variable changes them.  Among them are the paper's defaults:
  ``INITIAL_SAMPLE_SIZE``, the size n0 of the initial training set
  (Section 2.3, "10K by default"); ``NUM_PARAMETER_SAMPLES``, the number
  k of parameter samples behind Equation (5) / Lemma 2;
  ``CONFIDENCE_SLACK``, Lemma 2's 0.95; and ``FINITE_DIFFERENCE_EPS``, the
  epsilon of the InverseGradients statistics method (Section 3.4, "1e-6 by
  default").  Each is the default of a per-call parameter, so a caller can
  still pass another value.
* **Env knobs** (``DEFAULT_*``) bound caches, size worker pools, set the
  batching window and the housekeeping periods.  Each is overridable
  through a same-named environment variable; an eviction recomputes
  bitwise, and fan-out and fused dispatch are bitwise equal to the serial
  path, so none of them can change an answer.

Every component reads its defaults from here, so all of them agree on the
same values without hidden magic numbers.
"""

from __future__ import annotations

import math
import os

from repro.exceptions import ContractError


def _env_int(name: str, default: int, minimum: int = 0) -> int:
    """Integer default overridable via an environment variable.

    Lets CI and deployments retune concurrency/cache knobs (e.g.
    ``DEFAULT_STREAMING_WORKERS=4`` for the threaded-stress job) without
    code changes.  Invalid values — non-integers or anything below
    ``minimum`` — fall back to the built-in default rather than failing
    import.  (Unbounded caches are spelled ``None`` and only per-session
    constructor arguments can express that, not an env var.)
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value >= minimum else default

def _env_float(name: str, default: float, minimum: float = 0.0) -> float:
    """Float default overridable via an environment variable.

    Same philosophy as :func:`_env_int`: invalid values — non-numbers,
    ``nan`` and ``±inf``, or anything below ``minimum`` — fall back to the
    built-in default rather than failing import.  (A non-finite period or
    window would reach ``Condition.wait`` and kill the thread waiting on it.)
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    if not math.isfinite(value) or value < minimum:
        return default
    return value


# ----------------------------------------------------------------------
# Env knobs: capacity, concurrency and latency
# ----------------------------------------------------------------------

# 0 or 1 means serial block processing; larger values fold each unit (a
# holdout block, or a store shard for statistics) on that many workers and
# left-fold the partials in source order, so no worker count changes a bit.
# The workers are threads: NumPy releases the GIL inside the per-block
# GEMMs.  The CI threaded-stress job runs the whole suite at 4 threads.
DEFAULT_STREAMING_WORKERS = _env_int("DEFAULT_STREAMING_WORKERS", 0)

# Bounds for the EstimationSession caches (repro.core.caching.LRUCache).
# A serving deployment answering contracts for many (θ, n) pairs must not
# grow without bound: each sorted-difference vector holds k float64s
# (k = NUM_PARAMETER_SAMPLES, so ~1 KB at the default k=128), and cached
# models hold a d-dimensional θ.  Entry bounds are the primary knob; the
# byte bound is a belt-and-braces cap for unusually large k or d.  Session
# constructors accept per-instance overrides (None = unbounded).
DEFAULT_SESSION_DIFF_CACHE_ENTRIES = _env_int(
    "DEFAULT_SESSION_DIFF_CACHE_ENTRIES", 512, minimum=1
)
DEFAULT_SESSION_DIFF_CACHE_BYTES = _env_int(
    "DEFAULT_SESSION_DIFF_CACHE_BYTES", 32 * 1024 * 1024, minimum=1
)
DEFAULT_SESSION_MODEL_CACHE_ENTRIES = _env_int(
    "DEFAULT_SESSION_MODEL_CACHE_ENTRIES", 64, minimum=1
)
DEFAULT_SESSION_SIZE_CACHE_ENTRIES = _env_int(
    "DEFAULT_SESSION_SIZE_CACHE_ENTRIES", 1024, minimum=1
)

# Cross-session serving registry (repro.core.registry.SessionRegistry).
# A serving fleet keeps one EstimationSession per (model, dataset) pair;
# the registry bounds the *fleet*: at most DEFAULT_REGISTRY_MAX_SESSIONS
# live sessions, whose cache bytes collectively stay within
# DEFAULT_REGISTRY_CACHE_BYTES (the pool is re-split evenly among member
# sessions as the fleet grows/shrinks; whole idle sessions are evicted
# LRU-first when either bound would be exceeded).
# DEFAULT_REGISTRY_MIN_SESSION_BYTES only bounds how many members the pool
# admits: rather than splitting it thinner than this per member, the
# registry evicts the most idle session.
DEFAULT_REGISTRY_MAX_SESSIONS = _env_int("DEFAULT_REGISTRY_MAX_SESSIONS", 16, minimum=1)
DEFAULT_REGISTRY_CACHE_BYTES = _env_int(
    "DEFAULT_REGISTRY_CACHE_BYTES", 256 * 1024 * 1024, minimum=1
)
DEFAULT_REGISTRY_MIN_SESSION_BYTES = _env_int(
    "DEFAULT_REGISTRY_MIN_SESSION_BYTES", 1024 * 1024, minimum=1
)

# Cross-process warm cache tier (repro.data.store.warm_cache).  The
# directory comes from the REPRO_WARM_CACHE_DIR environment variable, read
# at session construction by
# repro.data.store.warm_cache.default_warm_cache_dir (unset disables the
# tier).  This bound caps the directory via mtime-GC after each write;
# entries are always published from a background writer thread.
DEFAULT_WARM_CACHE_MAX_BYTES = _env_int(
    "DEFAULT_WARM_CACHE_MAX_BYTES", 1024 * 1024 * 1024, minimum=1
)

# Request-coalescing serving tier (repro.serving).  A ContractBatcher
# collects concurrent answer()/train_to() requests against one session and
# dispatches them as one fused evaluation — identical (ε, δ) contracts
# become single-flight followers and distinct contracts share each search
# round's streamed holdout pass.  The window, held only while a queued
# request may run a size search, trades a couple of milliseconds of added
# latency on new contracts for that sharing; answers and size-cached
# repeats never wait it out.  The batch cap bounds how much work one
# dispatch can aggregate; the queue cap is the backpressure bound —
# submissions beyond it are load-shed with ServingOverloadError.
DEFAULT_COALESCE_WINDOW_MS = _env_float("DEFAULT_COALESCE_WINDOW_MS", 2.0, minimum=0.0)
DEFAULT_COALESCE_MAX_BATCH = _env_int("DEFAULT_COALESCE_MAX_BATCH", 16, minimum=1)
DEFAULT_COALESCE_MAX_QUEUE = _env_int("DEFAULT_COALESCE_MAX_QUEUE", 1024, minimum=1)

# CoalescingService housekeeping (repro.serving.service): the background
# thread period and how long a session may idle before the housekeeping
# pass evicts it from the registry.
DEFAULT_SERVICE_HOUSEKEEPING_SECONDS = _env_float(
    "DEFAULT_SERVICE_HOUSEKEEPING_SECONDS", 5.0, minimum=0.01
)
DEFAULT_SERVICE_IDLE_EVICT_SECONDS = _env_float(
    "DEFAULT_SERVICE_IDLE_EVICT_SECONDS", 900.0, minimum=0.0
)


def validate_delta(delta: float) -> float:
    """Validate a contract violation probability ``0 < δ < 1``."""
    if not 0.0 < delta < 1.0:
        raise ContractError(f"delta must lie in (0, 1), got {delta}")
    return float(delta)


# ----------------------------------------------------------------------
# Fixed defaults: read from no environment variable
# ----------------------------------------------------------------------

# Paper constants.  Lemma 2's 0.95 splits the confidence between its
# quantile statement and Hoeffding bound (raising it would weaken the
# guarantee); the paper uses BFGS for d < 100 and L-BFGS otherwise
# (Section 5.1), as the coordinator does.
CONFIDENCE_SLACK = 0.95
BFGS_DIMENSION_THRESHOLD = 100

# The paper's statistical defaults: n0, k and the InverseGradients probe
# step (see the module docstring).
INITIAL_SAMPLE_SIZE = 10_000
NUM_PARAMETER_SAMPLES = 128
FINITE_DIFFERENCE_EPS = 1e-6

# The contract's default violation probability δ (the paper's experiments
# use 0.05 throughout).  Every place a default δ appears — the contract
# dataclass, ``BlinkML.train_with_accuracy``, the experiment runners —
# reads this constant.
DELTA = 0.05

# SplitSpec's default holdout and test shares.
HOLDOUT_FRACTION = 0.1
TEST_FRACTION = 0.2

# Streaming sharded holdout evaluation (repro.evaluation.streaming).  The
# holdout is processed in row blocks of this size so the per-candidate
# prediction block stays O(k · block) instead of O(k · n_holdout);
# 8192 rows × 128 candidates × 8 bytes ≈ 8 MB per in-flight block.  The
# streamed statistics fold (repro.core.statistics) uses the same block
# grid for its (block_rows, d) per-example gradient blocks, so the block
# size is part of the statistics' bytes.
HOLDOUT_BLOCK_ROWS = 8_192

# Out-of-core shard store (repro.data.store).  Rows per .npy shard: the
# write path buffers at most one shard, the streaming read path memory-maps
# one shard at a time, and block bounds snap to shard boundaries — so this
# also upper-bounds the holdout block size a sharded evaluation can use
# without crossing shards.  Shards are also the statistics fold's units.
# 65536 rows x 64 features x 8 bytes = 32 MB per feature shard, a
# comfortable unit for both local disks and object stores.
STORE_SHARD_ROWS = 65_536

# How many candidate sample sizes the sample-size search evaluates per
# stacked Monte-Carlo round (a ceiling; the search stacks fewer once the
# bracket is narrow).  1 keeps the classic bisection; the coordinator/session
# default trades a little extra compute per round for ~log_{b+1} instead of
# log_2 rounds.  It sets the probe schedule and is part of the warm size
# keys.
SIZE_SEARCH_PROBE_BATCH = 3

# Optimiser defaults.
MAX_ITERATIONS = 500
GRADIENT_TOLERANCE = 1e-6
LBFGS_MEMORY = 10
