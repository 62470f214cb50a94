"""Global defaults for the BlinkML reproduction.

The constants below mirror the defaults mentioned in the paper:

* ``DEFAULT_INITIAL_SAMPLE_SIZE`` — the size n0 of the initial training set
  (Section 2.3, "10K by default").
* ``DEFAULT_NUM_PARAMETER_SAMPLES`` — the number k of parameter samples used
  by the Monte-Carlo estimate in Equation (5) / Lemma 2.
* ``CONFIDENCE_SLACK`` — the fixed 0.95 constant appearing in Lemma 2.
* ``DEFAULT_FINITE_DIFFERENCE_EPS`` — the epsilon used by the
  InverseGradients statistics method (Section 3.4, "1e-6 by default").

They can be overridden per call; they exist so that every component in the
system agrees on the same defaults without hidden magic numbers.
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

def _env_float(
    name: str, default: float, minimum: float = 0.0, maximum: float | None = None
) -> float:
    """Float default overridable via an environment variable.

    Same philosophy as :func:`_env_int`: invalid values — non-numbers,
    anything below ``minimum`` or (when given) above ``maximum`` — fall
    back to the built-in default rather than failing import.  ``maximum``
    exists for the fraction-valued knobs (confidence, δ, split fractions)
    whose whole valid range is an interval.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    if value < minimum:
        return default
    if maximum is not None and value > maximum:
        return default
    return value


def _env_str(name: str, default: str) -> str:
    """Free-form string default overridable via an environment variable.

    The value space is open (filesystem paths, directory names), so the
    only normalisation is whitespace stripping.
    An empty string is meaningful — it spells "feature disabled" for the
    warm-cache directory knob — and passes through unchanged.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip()


# Paper-default statistical knobs.  Like every other DEFAULT_* below they
# are env-overridable (same-named variables), so experiments can retune the
# Monte-Carlo budget or the initial-sample size without code changes; the
# bounds mirror each knob's valid range, and out-of-range values fall back
# to the built-in default rather than failing import.
DEFAULT_INITIAL_SAMPLE_SIZE = _env_int("DEFAULT_INITIAL_SAMPLE_SIZE", 10_000, minimum=1)
DEFAULT_NUM_PARAMETER_SAMPLES = _env_int(
    "DEFAULT_NUM_PARAMETER_SAMPLES", 128, minimum=2
)
DEFAULT_FINITE_DIFFERENCE_EPS = _env_float("DEFAULT_FINITE_DIFFERENCE_EPS", 1e-6)
DEFAULT_HOLDOUT_FRACTION = _env_float(
    "DEFAULT_HOLDOUT_FRACTION", 0.1, minimum=0.0, maximum=1.0
)
DEFAULT_TEST_FRACTION = _env_float(
    "DEFAULT_TEST_FRACTION", 0.2, minimum=0.0, maximum=1.0
)

# The contract's default violation probability δ (the paper's experiments
# use 0.05 throughout).  Every place a default δ appears — the contract
# dataclass, ``BlinkML.train_with_accuracy``, the experiment runners —
# reads this constant.  Env-overridable; values outside the open interval
# (0, 1), the endpoints included, fall back to 0.05, because
# :func:`validate_delta` rejects them at contract-construction time.
DEFAULT_DELTA = _env_float(
    "DEFAULT_DELTA",
    0.05,
    minimum=math.nextafter(0.0, 1.0),
    maximum=math.nextafter(1.0, 0.0),
)

# Streaming sharded holdout evaluation (repro.evaluation.streaming).  The
# holdout is processed in row blocks of this size so the per-candidate
# prediction block stays O(k · block) instead of O(k · n_holdout);
# 8192 rows × 128 candidates × 8 bytes ≈ 8 MB per in-flight block.  The
# streamed statistics fold (repro.core.statistics) uses the same block
# size for its (block_rows, d) per-example gradient blocks.
# Env-overridable.
DEFAULT_HOLDOUT_BLOCK_ROWS = _env_int("DEFAULT_HOLDOUT_BLOCK_ROWS", 8_192, minimum=1)
# 0 or 1 means serial block processing; larger values fold each unit (a
# holdout block, or a store shard for statistics) on that many workers and
# left-fold the partials in source order, so no worker count changes a bit.
# The workers are threads: NumPy releases the GIL inside the per-block
# GEMMs.  Overridable via the DEFAULT_STREAMING_WORKERS environment variable
# (the CI threaded-stress job runs the whole suite at 4 threads).
DEFAULT_STREAMING_WORKERS = _env_int("DEFAULT_STREAMING_WORKERS", 0)

# Out-of-core shard store (repro.data.store).  Rows per .npy shard: the
# write path buffers at most one shard, the streaming read path memory-maps
# one shard at a time, and block bounds snap to shard boundaries — so this
# also upper-bounds the holdout block size a sharded evaluation can use
# without crossing shards.  65536 rows x 64 features x 8 bytes = 32 MB per
# feature shard at the default, a comfortable unit for both local disks and
# object stores.  Env-overridable.
DEFAULT_STORE_SHARD_ROWS = _env_int("DEFAULT_STORE_SHARD_ROWS", 65_536, minimum=1)

# Bounds for the EstimationSession caches (repro.core.caching.LRUCache).
# A serving deployment answering contracts for many (θ, n) pairs must not
# grow without bound: each sorted-difference vector holds k float64s
# (k = DEFAULT_NUM_PARAMETER_SAMPLES, so ~1 KB at the default k=128), and
# cached models hold a d-dimensional θ.  Entry bounds are the primary knob;
# the byte bound is a belt-and-braces cap for unusually large k or d.
# All overridable via same-named environment variables; session constructors
# accept per-instance overrides (None = unbounded).
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
# registry evicts the most idle session.  All env-overridable like the
# knobs above.
DEFAULT_REGISTRY_MAX_SESSIONS = _env_int("DEFAULT_REGISTRY_MAX_SESSIONS", 16, minimum=1)
DEFAULT_REGISTRY_CACHE_BYTES = _env_int(
    "DEFAULT_REGISTRY_CACHE_BYTES", 256 * 1024 * 1024, minimum=1
)
DEFAULT_REGISTRY_MIN_SESSION_BYTES = _env_int(
    "DEFAULT_REGISTRY_MIN_SESSION_BYTES", 1024 * 1024, minimum=1
)

# Cross-process warm cache tier (repro.data.store.warm_cache).  When the
# directory knob is non-empty, sessions persist their sorted-difference
# vectors and size-search results as digest-keyed .npz entries under it,
# so a restarted process — or a co-located serving process sharing the
# directory — answers a repeat contract with zero streamed passes.  The
# empty default disables the tier.  Deployments may also set the runtime
# alias REPRO_WARM_CACHE_DIR (read at session construction by
# repro.data.store.warm_cache.default_warm_cache_dir, so tests and CI can
# retarget the directory without re-importing this module).  MAX_BYTES
# bounds the directory via mtime-GC after each write; entries are always
# published from a background writer thread.
DEFAULT_WARM_CACHE_DIR = _env_str("DEFAULT_WARM_CACHE_DIR", "")
DEFAULT_WARM_CACHE_MAX_BYTES = _env_int(
    "DEFAULT_WARM_CACHE_MAX_BYTES", 1024 * 1024 * 1024, minimum=1
)

# How many candidate sample sizes the sample-size search evaluates per
# stacked Monte-Carlo round (a ceiling; the search stacks fewer once the
# bracket is narrow).  1 keeps the classic bisection; the coordinator/session
# default trades a little extra compute per round for ~log_{b+1} instead of
# log_2 rounds.
# Env-overridable like the other serving knobs; values below 1 fall back
# to the default (the session/coordinator boundary rejects them outright).
DEFAULT_SIZE_SEARCH_PROBE_BATCH = _env_int(
    "DEFAULT_SIZE_SEARCH_PROBE_BATCH", 3, minimum=1
)

# Request-coalescing serving tier (repro.serving).  A ContractBatcher
# collects concurrent answer()/train_to() requests against one session for
# a short window and dispatches them as one fused evaluation — identical
# (ε, δ) contracts become single-flight followers and distinct contracts
# share each search round's streamed holdout pass.  The window trades a
# couple of milliseconds of added latency for cross-caller GEMM sharing;
# the batch cap bounds how much work one dispatch can aggregate; the queue
# cap is the backpressure bound — submissions beyond it are load-shed with
# ServingOverloadError.  All env-overridable.
DEFAULT_COALESCE_WINDOW_MS = _env_float("DEFAULT_COALESCE_WINDOW_MS", 2.0, minimum=0.0)
DEFAULT_COALESCE_MAX_BATCH = _env_int("DEFAULT_COALESCE_MAX_BATCH", 16, minimum=1)
DEFAULT_COALESCE_MAX_QUEUE = _env_int("DEFAULT_COALESCE_MAX_QUEUE", 1024, minimum=1)

# CoalescingService housekeeping (repro.serving.service): the background
# thread period and how long a session may idle before the housekeeping
# pass evicts it from the registry.  All env-overridable.
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

# Paper constants, fixed and read from no environment variable.  Lemma 2's
# 0.95 splits the confidence between its quantile statement and Hoeffding
# bound (raising it would weaken the guarantee); the paper uses BFGS for
# d < 100 and L-BFGS otherwise (Section 5.1), as the coordinator does.
CONFIDENCE_SLACK = 0.95
BFGS_DIMENSION_THRESHOLD = 100

# Optimiser defaults, env-overridable like every DEFAULT_* above.
DEFAULT_MAX_ITERATIONS = _env_int("DEFAULT_MAX_ITERATIONS", 500, minimum=1)
DEFAULT_GRADIENT_TOLERANCE = _env_float("DEFAULT_GRADIENT_TOLERANCE", 1e-6)
DEFAULT_LBFGS_MEMORY = _env_int("DEFAULT_LBFGS_MEMORY", 10, minimum=1)
