"""Tests for the cross-process warm cache tier.

Covers the tier itself (atomic publication, digest verification +
quarantine, crash and tamper recovery, byte-bounded GC, deterministic
serialisation), the key builders (distinctness and stability properties),
the session/registry wiring (a fresh process answers repeat contracts with
zero streamed passes and fits no model, bitwise identical to a cold run),
an unusable warm directory, a disk that fills mid-write, and multi-process
contention against one shared warm directory.
"""

from __future__ import annotations

import builtins
import errno
import glob
import hashlib
import json
import multiprocessing
import os
import struct
import threading
import time

import numpy as np
import pytest

from repro import (
    ApproximationContract,
    EstimationSession,
    LogisticRegressionSpec,
    SessionRegistry,
    WarmCacheStats,
    WarmCacheTier,
)
from repro.data import ShardStore, train_holdout_test_split
from repro.data.sampling import UniformSampler
from repro.data.splits import SplitSpec
from repro.data.synthetic import higgs_like
from repro.data.store import warm_cache as warm_cache_module
from repro.data.store.warm_cache import (
    DIFF_KIND,
    MODEL_KIND,
    diff_entry_key,
    entry_filename,
    model_entry_key,
    resolve_warm_cache,
    serialize_entry,
    shared_warm_cache,
    size_entry_key,
)
from repro.evaluation.streaming import streaming_pass_count
from repro.exceptions import ServingError
from repro.serving import CoalescingService

# ----------------------------------------------------------------------
# A deterministic forcing workload: the initial model cannot satisfy the
# contract, so a cold serve runs the full pipeline (diff vector, size
# search, final model, final estimate).  Module-level so the spawn-based
# workers rebuild the identical datasets in their own interpreters.
# ----------------------------------------------------------------------
_ROWS = 2_500
_FEATURES = 10
_SESSION_KWARGS = dict(rng=0, n_parameter_samples=24, initial_sample_size=250)
_CONTRACT = (0.015, 0.05)
_EXTRA_CONTRACTS = ((0.010, 0.05), (0.020, 0.10))


def _splits():
    return train_holdout_test_split(
        higgs_like(n_rows=_ROWS, n_features=_FEATURES, seed=13),
        SplitSpec(holdout_fraction=0.2, test_fraction=0.1),
        rng=np.random.default_rng(9),
    )


def _session(warm_cache, splits=None) -> EstimationSession:
    splits = splits if splits is not None else _splits()
    return EstimationSession(
        LogisticRegressionSpec(regularization=1e-3),
        splits.train,
        splits.holdout,
        warm_cache=warm_cache,
        **_SESSION_KWARGS,
    )


def _result_row(result) -> tuple[bytes, float, int]:
    return (
        result.model.theta.tobytes(),
        float(result.estimated_epsilon),
        int(result.sample_size),
    )


def _serve_worker(warm_dir: str, contracts, out_queue) -> None:
    """Spawn target: serve ``contracts`` against a shared warm directory."""
    session = _session(warm_dir)
    rows = []
    before = streaming_pass_count()
    for epsilon, delta in contracts:
        result = session.train_to(ApproximationContract(epsilon, delta))
        rows.append(_result_row(result))
    passes = streaming_pass_count() - before
    tier = session.warm_cache
    tier.flush()
    out_queue.put((os.getpid(), rows, passes, tier.stats().quarantined))


def _key_worker(out_queue) -> None:
    """Spawn target: report the warm keys a fresh interpreter builds."""
    out_queue.put(_session_keys(_session(False)))


def _session_keys(session: EstimationSession) -> tuple[str, str, str]:
    """The diff, size and model keys of one fixed probe."""
    return (
        session._warm_diff_key(
            (session._theta_digest(session.initial_model.theta), 1_000, session.full_size)
        ),
        session._warm_size_key(_CONTRACT),
        session._warm_model_key(1_000),
    )


def _optimization_row(model) -> tuple:
    """θ bytes, n and every OptimizationResult field of a trained model."""
    result = model.optimization
    return (
        model.theta.tobytes(),
        model.n_train,
        result.theta.tobytes(),
        result.converged,
        result.n_iterations,
        result.final_value,
        result.gradient_norm,
        result.n_function_evaluations,
        list(result.loss_history),
    )


def _member_spans(blob: bytes) -> dict[str, tuple[int, int]]:
    """``name → (offset, length)`` of each member, read from the entry header.

    Follows the documented layout on its own: magic line, 8-byte
    little-endian header length, JSON header, members at 8-byte-aligned
    offsets in header order.
    """
    magic_end = blob.index(b"\n") + 1
    (length,) = struct.unpack_from("<Q", blob, magic_end)
    offset = magic_end + 8 + length
    header = json.loads(blob[magic_end + 8 : offset])
    spans = {}
    for member in header["members"]:
        offset += -offset % 8
        size = int(np.prod(member["shape"])) * np.dtype(member["dtype"]).itemsize
        spans[member["name"]] = (offset, size)
        offset += size
    return spans


def _flip_member_byte(path: str, member: str) -> None:
    """Flip the middle byte of one member's stored bytes."""
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    offset, size = _member_spans(bytes(blob))[member]
    blob[offset + size // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


@pytest.fixture
def fit_calls(monkeypatch):
    """Counts ``LogisticRegressionSpec.fit`` calls (patched on the class, so
    the spec digest — which hashes instance attributes — is unchanged)."""
    calls: list[int] = []
    original = LogisticRegressionSpec.fit

    def spy(self, dataset, *args, **kwargs):
        calls.append(dataset.n_rows)
        return original(self, dataset, *args, **kwargs)

    monkeypatch.setattr(LogisticRegressionSpec, "fit", spy)
    return calls


class _FullDiskHandle:
    """A write handle on a disk that fills mid-write: half of the bytes
    reach the file, then ``write`` raises ``ENOSPC``."""

    def __init__(self, handle, landed: list) -> None:
        self._handle = handle
        self._landed = landed

    def write(self, data: bytes) -> int:
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        self._landed.append((self._handle.name, os.path.getsize(self._handle.name)))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self) -> _FullDiskHandle:
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()


@pytest.fixture
def full_disk(monkeypatch):
    """Every warm-entry write fails with ``ENOSPC`` after half of its bytes
    landed; reads are untouched.  Returns ``(temp path, bytes on disk)``
    per failed write."""
    landed: list[tuple[str, int]] = []

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        return _FullDiskHandle(handle, landed) if "w" in mode else handle

    monkeypatch.setattr(warm_cache_module, "open", open_on_full_disk, raising=False)
    return landed


def _payload(seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "differences": np.sort(rng.standard_normal(32)),
        "meta": np.arange(4, dtype=np.int64),
    }


# ----------------------------------------------------------------------
# Tier unit tests
# ----------------------------------------------------------------------
class TestWarmCacheTier:
    def test_roundtrip_and_counters(self, tmp_path):
        tier = WarmCacheTier(tmp_path)
        payload = _payload()
        assert tier.get(DIFF_KIND, "k1") is None
        tier.put(DIFF_KIND, "k1", payload)
        tier.flush()
        loaded = tier.get(DIFF_KIND, "k1")
        assert loaded is not None
        np.testing.assert_array_equal(loaded["differences"], payload["differences"])
        np.testing.assert_array_equal(loaded["meta"], payload["meta"])
        assert not loaded["differences"].flags.writeable
        stats = tier.stats()
        assert isinstance(stats, WarmCacheStats)
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.entries == 1 and stats.bytes > 0
        assert stats.requests == 2 and stats.hit_rate == 0.5

    def test_flush_publishes_queued_writes(self, tmp_path):
        tier = WarmCacheTier(tmp_path)
        tier.put(DIFF_KIND, "k1", _payload())
        tier.flush()
        assert tier.get(DIFF_KIND, "k1") is not None
        tier.close()
        # Post-close puts are dropped (and counted), gets keep working.
        tier.put(DIFF_KIND, "k2", _payload(1))
        assert tier.stats().dropped_writes == 1
        assert tier.get(DIFF_KIND, "k1") is not None

    def test_serialization_is_deterministic(self):
        payload = _payload()
        reordered = dict(reversed(list(payload.items())))
        assert serialize_entry(DIFF_KIND, "k", payload) == serialize_entry(
            DIFF_KIND, "k", reordered
        )

    def test_racing_writers_produce_identical_bytes(self, tmp_path):
        """Last-writer-wins is benign: same key → byte-identical files."""
        a = WarmCacheTier(tmp_path / "a")
        b = WarmCacheTier(tmp_path / "b")
        a.put(DIFF_KIND, "k1", _payload())
        a.flush()
        b.put(DIFF_KIND, "k1", _payload())
        b.flush()
        (file_a,) = glob.glob(str(tmp_path / "a" / "warm-*.entry"))
        (file_b,) = glob.glob(str(tmp_path / "b" / "warm-*.entry"))
        with open(file_a, "rb") as fa, open(file_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_bit_flip_quarantined_and_recomputed(self, tmp_path):
        tier = WarmCacheTier(tmp_path)
        tier.put(DIFF_KIND, "k1", _payload())
        tier.flush()
        (path,) = glob.glob(str(tmp_path / "warm-*.entry"))
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        assert tier.get(DIFF_KIND, "k1") is None
        stats = tier.stats()
        assert stats.quarantined == 1
        assert stats.entries == 0
        quarantined = glob.glob(str(tmp_path / "quarantine" / "warm-*.entry"))
        assert len(quarantined) == 1
        # Transparent recovery: the next put republishes a good entry.
        tier.put(DIFF_KIND, "k1", _payload())
        tier.flush()
        assert tier.get(DIFF_KIND, "k1") is not None

    def test_every_truncation_is_quarantined(self, tmp_path):
        tier = WarmCacheTier(tmp_path)
        blob = serialize_entry(DIFF_KIND, "k1", _payload())
        path = os.path.join(tmp_path, entry_filename(DIFF_KIND, "k1"))
        for length in range(len(blob)):
            with open(path, "wb") as handle:
                handle.write(blob[:length])
            assert tier.get(DIFF_KIND, "k1") is None, length
            assert tier.stats().quarantined == length + 1
        assert tier.stats().hits == 0

    def test_legacy_npz_entries_miss_and_age_out(self, tmp_path):
        """An entry of the earlier ``.npz`` layout, under the name that
        layout gave its key, is never parsed: a plain miss, not a
        quarantine.  It counts toward ``max_bytes`` and goes oldest-first,
        so an upgraded directory does not keep its bytes forever."""
        digest = hashlib.blake2b(b"k1", digest_size=16).hexdigest()
        legacy = tmp_path / f"warm-diff-{digest}.npz"
        with open(legacy, "wb") as handle:
            np.savez(handle, **_payload())
        stamp = time.time() - 3_600
        os.utime(legacy, (stamp, stamp))
        tier = WarmCacheTier(tmp_path)
        assert tier.get(DIFF_KIND, "k1") is None
        stats = tier.stats()
        assert (stats.misses, stats.quarantined) == (1, 0)
        assert (stats.entries, stats.bytes) == (1, legacy.stat().st_size)
        assert legacy.exists()

        tier.max_bytes = len(serialize_entry(DIFF_KIND, "k1", _payload()))
        tier.put(DIFF_KIND, "k1", _payload())
        tier.flush()
        assert not legacy.exists()
        stats = tier.stats()
        assert (stats.gc_removed, stats.entries, stats.quarantined) == (1, 1, 0)
        assert tier.get(DIFF_KIND, "k1") is not None

    def test_key_collision_is_rejected(self, tmp_path):
        """An entry copied under another key's file name never serves."""
        tier = WarmCacheTier(tmp_path)
        tier.put(DIFF_KIND, "k1", _payload())
        tier.flush()
        source = os.path.join(tmp_path, entry_filename(DIFF_KIND, "k1"))
        target = os.path.join(tmp_path, entry_filename(DIFF_KIND, "k2"))
        with open(source, "rb") as handle:
            blob = handle.read()
        with open(target, "wb") as handle:
            handle.write(blob)
        assert tier.get(DIFF_KIND, "k2") is None
        assert tier.stats().quarantined == 1
        assert tier.get(DIFF_KIND, "k1") is not None

    def test_crashed_writer_leaves_no_visible_entry(self, tmp_path):
        """SIGKILL mid-write = temp file present, final name never created."""
        tier = WarmCacheTier(tmp_path)
        final = os.path.join(tmp_path, entry_filename(DIFF_KIND, "k1"))
        temp = f"{final}.tmp-99999-deadbeef"
        os.makedirs(tmp_path, exist_ok=True)
        with open(temp, "wb") as handle:
            handle.write(serialize_entry(DIFF_KIND, "k1", _payload())[:64])
        # The tier opens clean: the torn temp is invisible to reads...
        assert tier.get(DIFF_KIND, "k1") is None
        assert tier.stats().quarantined == 0
        # ...a fresh temp survives GC (the writer may still be alive)...
        tier.gc()
        assert os.path.exists(temp)
        # ...and an aged temp is swept.
        os.utime(temp, (time.time() - 3_600, time.time() - 3_600))
        tier.gc()
        assert not os.path.exists(temp)
        # Recompute path: publishing k1 now works normally.
        tier.put(DIFF_KIND, "k1", _payload())
        tier.flush()
        assert tier.get(DIFF_KIND, "k1") is not None

    def test_gc_evicts_oldest_to_byte_bound(self, tmp_path):
        tier = WarmCacheTier(tmp_path)
        entry_bytes = len(serialize_entry(DIFF_KIND, "k0", _payload()))
        tier.max_bytes = 3 * entry_bytes + entry_bytes // 2
        now = time.time()
        for index in range(4):
            tier.put(DIFF_KIND, f"k{index}", _payload())
            tier.flush()
            path = os.path.join(tmp_path, entry_filename(DIFF_KIND, f"k{index}"))
            stamp = now - 100 + index
            os.utime(path, (stamp, stamp))
        tier.put(DIFF_KIND, "k4", _payload())
        tier.flush()
        stats = tier.stats()
        assert stats.bytes <= tier.max_bytes
        assert stats.gc_removed >= 1
        # Oldest-first: k0 (and possibly k1) went; the newest survives.
        assert tier.get(DIFF_KIND, "k0") is None
        assert tier.get(DIFF_KIND, "k4") is not None

    def test_quarantine_counts_toward_the_byte_bound(self, tmp_path):
        """Quarantined files stay for post-mortems, inside ``max_bytes``:
        ``stats().bytes`` counts them, ``entries`` does not, and ``gc()``
        removes them oldest first before any live entry, even an older
        one.  Twenty quarantined 664-byte diff entries used to sit outside
        a 4,096-byte bound, unseen by both."""
        tier = WarmCacheTier(tmp_path, max_bytes=4_096)
        entry_bytes = len(serialize_entry(DIFF_KIND, "live", _payload()))
        tier.put(DIFF_KIND, "live", _payload())
        tier.flush()
        now = time.time()
        live = os.path.join(tmp_path, entry_filename(DIFF_KIND, "live"))
        os.utime(live, (now - 1_000, now - 1_000))
        for index in range(20):
            key = f"k{index}"
            blob = bytearray(serialize_entry(DIFF_KIND, key, _payload()))
            blob[len(blob) // 2] ^= 0xFF
            path = os.path.join(tmp_path, entry_filename(DIFF_KIND, key))
            with open(path, "wb") as handle:
                handle.write(bytes(blob))
            os.utime(path, (now - 100 + index, now - 100 + index))
            assert tier.get(DIFF_KIND, key) is None
        stats = tier.stats()
        assert (stats.quarantined, stats.entries) == (20, 1)
        assert stats.bytes == 21 * entry_bytes > tier.max_bytes

        tier.gc()

        on_disk = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(tmp_path)
            for name in names
        )
        assert on_disk == tier.stats().bytes <= tier.max_bytes
        assert tier.get(DIFF_KIND, "live") is not None
        survivors = sorted(os.listdir(tmp_path / "quarantine"))
        kept = tier.max_bytes // entry_bytes - 1  # the live entry stays
        assert survivors == sorted(
            entry_filename(DIFF_KIND, f"k{index}") for index in range(20 - kept, 20)
        )

    def test_unopenable_directory_is_a_miss_not_corruption(self, tmp_path):
        """A warm directory below a regular file cannot even be opened:
        reads miss without quarantining, writes are dropped and counted."""
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"not a directory")
        tier = WarmCacheTier(blocker / "warm")
        assert tier.get(DIFF_KIND, "k1") is None
        tier.put(DIFF_KIND, "k1", _payload())
        tier.flush()
        stats = tier.stats()
        assert (stats.hits, stats.misses, stats.quarantined) == (0, 1, 0)
        assert (stats.writes, stats.dropped_writes, stats.entries) == (0, 1, 0)

    def test_resolve_semantics(self, tmp_path, monkeypatch):
        tier = WarmCacheTier(tmp_path / "t")
        assert resolve_warm_cache(tier) is tier
        assert resolve_warm_cache(False) is None
        monkeypatch.delenv("REPRO_WARM_CACHE_DIR", raising=False)
        assert resolve_warm_cache(None) is None
        monkeypatch.setenv("REPRO_WARM_CACHE_DIR", str(tmp_path / "env"))
        resolved = resolve_warm_cache(None)
        assert resolved is not None
        assert resolved is resolve_warm_cache(None)
        # Same directory → the process-shared instance.
        assert resolve_warm_cache(tmp_path / "env") is resolved
        assert shared_warm_cache(tmp_path / "env") is resolved


# ----------------------------------------------------------------------
# Key properties
# ----------------------------------------------------------------------
class TestKeyProperties:
    def test_distinct_parameters_give_distinct_keys(self):
        base = dict(
            spec_digest="s" * 32,
            holdout_digest="h" * 32,
            draws_digest="d" * 32,
            theta_digest="t" * 32,
            n0=300,
            N=6_000,
            k=32,
            probe_batch=4,
            epsilon=0.005,
            delta=0.05,
        )
        keys = {size_entry_key(**base)}
        for field, values in {
            "epsilon": (0.004, 0.0051),
            "delta": (0.04, 0.1),
            "probe_batch": (1, 8),
            "theta_digest": ("u" * 32,),
            "draws_digest": ("e" * 32,),
            "spec_digest": ("q" * 32,),
            "holdout_digest": ("g" * 32,),
            "n0": (301,),
            "N": (6_001,),
            "k": (64,),
        }.items():
            for value in values:
                keys.add(size_entry_key(**{**base, field: value}))
        assert len(keys) == 14

        diff_base = dict(
            spec_digest="s" * 32,
            holdout_digest="h" * 32,
            draws_digest="d" * 32,
            theta_digest="t" * 32,
            n=1_000,
            N=6_000,
            k=32,
        )
        assert diff_entry_key(**diff_base) != size_entry_key(**base)
        assert diff_entry_key(**diff_base) != diff_entry_key(
            **{**diff_base, "n": 1_001}
        )

        # A model key pins every input of spec.fit(nested_sample(n), θ₀).
        model_base = dict(
            spec_digest="s" * 32,
            train_digest="r" * 32,
            permutation_digest="p" * 32,
            theta0_digest="t" * 32,
            n=1_000,
        )
        model_keys = {model_entry_key(**model_base)}
        for field, value in {
            "spec_digest": "q" * 32,
            "train_digest": "g" * 32,
            "permutation_digest": "o" * 32,
            "theta0_digest": "u" * 32,
            "n": 1_001,
        }.items():
            model_keys.add(model_entry_key(**{**model_base, field: value}))
        assert len(model_keys) == 6

    def test_permutation_digest_follows_the_seed(self):
        train = _splits().train

        def sampler(seed: int) -> UniformSampler:
            return UniformSampler(train, rng=np.random.default_rng(seed))

        digest = sampler(0).permutation_digest()
        assert digest == sampler(0).permutation_digest()
        assert digest != sampler(1).permutation_digest()
        memoised = sampler(0)
        assert memoised.permutation_digest() is memoised.permutation_digest()

    def test_keys_stable_across_kwarg_ordering(self):
        forward = dict(
            spec_digest="s",
            holdout_digest="h",
            draws_digest="d",
            theta_digest="t",
            n=10,
            N=100,
            k=8,
        )
        reordered = dict(reversed(list(forward.items())))
        assert diff_entry_key(**forward) == diff_entry_key(**reordered)
        model = dict(
            spec_digest="s",
            train_digest="r",
            permutation_digest="p",
            theta0_digest="t",
            n=10,
        )
        reordered = dict(reversed(list(model.items())))
        assert model_entry_key(**model) == model_entry_key(**reordered)

    def test_float_keys_are_bit_exact(self):
        base = dict(
            spec_digest="s",
            holdout_digest="h",
            draws_digest="d",
            theta_digest="t",
            n0=10,
            N=100,
            k=8,
            probe_batch=1,
        )
        a = size_entry_key(**base, epsilon=0.1, delta=0.05)
        b = size_entry_key(**base, epsilon=0.1 + 1e-18, delta=0.05)
        c = size_entry_key(**base, epsilon=np.nextafter(0.1, 1.0), delta=0.05)
        assert a == b  # 0.1 + 1e-18 rounds to the same float64
        assert a != c  # one ulp apart → distinct keys

    def test_keys_stable_across_storage_tiers(self, tmp_path):
        """Dataset vs ShardedDataset holdouts of the same rows share keys."""
        splits = _splits()
        sharded_holdout = ShardStore.write(
            splits.holdout, tmp_path / "holdout", shard_rows=512
        ).dataset()
        spec = LogisticRegressionSpec(regularization=1e-3)
        in_memory = EstimationSession(
            spec, splits.train, splits.holdout, warm_cache=False, **_SESSION_KWARGS
        )
        sharded = EstimationSession(
            spec, splits.train, sharded_holdout, warm_cache=False, **_SESSION_KWARGS
        )
        diff_key = in_memory._warm_diff_key(
            (in_memory._theta_digest(in_memory.initial_model.theta), 1_000, _ROWS)
        )
        assert diff_key == sharded._warm_diff_key(
            (sharded._theta_digest(sharded.initial_model.theta), 1_000, _ROWS)
        )
        assert in_memory._warm_size_key(_CONTRACT) == sharded._warm_size_key(
            _CONTRACT
        )

    def test_keys_stable_across_processes(self):
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        worker = ctx.Process(target=_key_worker, args=(queue,))
        worker.start()
        child_keys = queue.get(timeout=120)
        worker.join(timeout=120)
        assert worker.exitcode == 0
        assert _session_keys(_session(False)) == child_keys


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
class TestSessionWarmServing:
    def test_restart_answers_with_zero_streamed_passes(self, tmp_path):
        contract = ApproximationContract(*_CONTRACT)
        splits = _splits()
        cold = _session(str(tmp_path), splits)
        before = streaming_pass_count()
        cold_result = cold.train_to(contract)
        cold_passes = streaming_pass_count() - before
        assert cold_passes > 0
        cold.warm_cache.flush()

        # "Restart": a brand-new session against the same warm directory.
        warm = _session(str(tmp_path), splits)
        before = streaming_pass_count()
        warm_result = warm.train_to(contract)
        assert streaming_pass_count() - before == 0
        assert _result_row(warm_result) == _result_row(cold_result)
        answer = warm.answer(contract)
        assert answer.from_cache
        stats = warm.warm_cache.stats()
        assert stats.hits >= 3 and stats.quarantined == 0

    def test_warm_results_match_cold_control_bitwise(self, tmp_path):
        contract = ApproximationContract(*_CONTRACT)
        splits = _splits()
        seeded = _session(str(tmp_path), splits)
        seeded_result = seeded.train_to(contract)
        seeded.warm_cache.flush()
        warm = _session(str(tmp_path), splits)
        warm_result = warm.train_to(contract)
        control = _session(False, splits)
        control_result = control.train_to(contract)
        assert _result_row(warm_result) == _result_row(control_result)
        assert _result_row(seeded_result) == _result_row(control_result)

    def test_corrupt_entries_recompute_not_misserve(self, tmp_path):
        contract = ApproximationContract(*_CONTRACT)
        splits = _splits()
        cold = _session(str(tmp_path), splits)
        cold_result = cold.train_to(contract)
        cold.warm_cache.flush()
        for path in glob.glob(str(tmp_path / "warm-*.entry")):
            blob = bytearray(open(path, "rb").read())
            blob[len(blob) // 3] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(blob))
        tampered = _session(str(tmp_path), splits)
        before = streaming_pass_count()
        tampered_result = tampered.train_to(contract)
        assert streaming_pass_count() - before > 0  # recomputed, not served
        assert _result_row(tampered_result) == _result_row(cold_result)
        assert tampered.warm_cache.stats().quarantined >= 1

    def test_restart_fits_no_model(self, tmp_path, fit_calls):
        contracts = [ApproximationContract(*pair) for pair in (_CONTRACT, *_EXTRA_CONTRACTS)]
        splits = _splits()
        cold = _session(str(tmp_path), splits)
        cold_results = [cold.train_to(contract) for contract in contracts]
        trained = [r for r in cold_results if not r.used_initial_model]
        assert trained, "the workload must train at least one m_n"
        assert len(fit_calls) == 1 + len({r.sample_size for r in trained})
        cold.warm_cache.flush()
        model_entries = glob.glob(str(tmp_path / "warm-model-*.entry"))
        assert len(model_entries) == len(fit_calls)  # m_0 and each m_n

        del fit_calls[:]
        warm = _session(str(tmp_path), splits)
        warm_results = [warm.train_to(contract) for contract in contracts]
        assert fit_calls == []
        assert _optimization_row(warm.initial_model) == _optimization_row(
            cold.initial_model
        )
        assert warm.initial_model.spec is warm.spec
        for cold_result, warm_result in zip(cold_results, warm_results):
            assert _result_row(warm_result) == _result_row(cold_result)
            assert _optimization_row(warm_result.model) == _optimization_row(
                cold_result.model
            )
            if not warm_result.used_initial_model:
                assert warm_result.metadata["model_cache_hit"] is True
                assert warm_result.model.spec is warm.spec
        assert warm.cache_stats()["model"].misses == 0

    def test_corrupt_model_entry_refits_to_same_bytes(self, tmp_path, fit_calls):
        contract = ApproximationContract(*_CONTRACT)
        splits = _splits()
        cold = _session(str(tmp_path), splits)
        cold_result = cold.train_to(contract)
        assert not cold_result.used_initial_model
        cold.warm_cache.flush()
        model_entry = os.path.join(
            tmp_path,
            entry_filename(MODEL_KIND, cold._warm_model_key(cold_result.sample_size)),
        )
        _flip_member_byte(model_entry, "theta")

        del fit_calls[:]
        tampered = _session(str(tmp_path), splits)
        tampered_result = tampered.train_to(contract)
        assert fit_calls == [cold_result.sample_size]  # m_0 still loads
        assert tampered_result.metadata["model_cache_hit"] is False
        assert _optimization_row(tampered_result.model) == _optimization_row(
            cold_result.model
        )
        assert tampered.warm_cache.stats().quarantined == 1
        assert os.path.exists(
            os.path.join(tmp_path, "quarantine", os.path.basename(model_entry))
        )

    def test_refresh_serves_no_model_from_before_an_append(self, tmp_path):
        data = higgs_like(n_rows=3_000, n_features=_FEATURES, seed=13)
        holdout = higgs_like(n_rows=500, n_features=_FEATURES, seed=14)
        directory = tmp_path / "train"
        ShardStore.write(data.take(np.arange(2_000)), directory, shard_rows=500)
        contract = ApproximationContract(*_CONTRACT)

        def session(warm_cache) -> EstimationSession:
            return EstimationSession(
                LogisticRegressionSpec(regularization=1e-3),
                ShardStore.open(directory).dataset(),
                holdout,
                warm_cache=warm_cache,
                **_SESSION_KWARGS,
            )

        warm, control = session(str(tmp_path / "warm")), session(False)
        first = warm.train_to(contract)
        assert not first.used_initial_model
        assert _result_row(first) == _result_row(control.train_to(contract))
        warm.warm_cache.flush()
        key_before = warm._warm_model_key(first.sample_size)

        ShardStore.open(directory).append_shards(
            [(data.X[2_000:], data.y[2_000:])], shard_rows=500
        )
        assert warm.refresh().train_changed and control.refresh().train_changed
        assert warm._warm_model_key(first.sample_size) != key_before
        grown = warm.train_to(contract)
        assert grown.metadata["model_cache_hit"] is False
        assert _result_row(grown) == _result_row(control.train_to(contract))
        assert warm.warm_cache.stats().quarantined == 0

    def test_fit_straddling_a_refresh_is_not_published(self, tmp_path, monkeypatch):
        """A fit that ends after refresh() swapped the sampler but before it
        cleared the caches must not publish its θ, least of all under the
        key built from the refreshed sampler, where it would be served."""
        data = higgs_like(n_rows=3_000, n_features=_FEATURES, seed=13)
        directory = tmp_path / "train"
        ShardStore.write(data.take(np.arange(2_000)), directory, shard_rows=500)
        session = EstimationSession(
            LogisticRegressionSpec(regularization=1e-3),
            ShardStore.open(directory).dataset(),
            higgs_like(n_rows=500, n_features=_FEATURES, seed=14),
            warm_cache=str(tmp_path / "warm"),
            **_SESSION_KWARGS,
        )
        release, fitted = threading.Event(), []
        original_fit = LogisticRegressionSpec.fit

        def held_fit(self, dataset, *args, **kwargs):
            model = original_fit(self, dataset, *args, **kwargs)
            if dataset.n_rows != session.initial_sample_size:
                fitted.append(dataset.n_rows)
                release.wait(60)
            return model

        monkeypatch.setattr(LogisticRegressionSpec, "fit", held_fit)
        worker = threading.Thread(
            target=session.train_to, args=(ApproximationContract(*_CONTRACT),)
        )
        worker.start()
        deadline = time.monotonic() + 60
        while not fitted and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fitted, "m_n never reached its fit"
        key_before = session._warm_model_key(fitted[0])
        ShardStore.open(directory).append_shards(
            [(data.X[2_000:], data.y[2_000:])], shard_rows=500
        )
        clear_diffs = session._diff_cache.clear

        def finish_fit_then_clear():
            # Runs after refresh() swapped the sampler, before it clears the
            # model cache: the fit's result is still current there.
            release.set()
            worker.join(60)
            clear_diffs()

        monkeypatch.setattr(session._diff_cache, "clear", finish_fit_then_clear)
        assert session.refresh().train_changed
        assert not worker.is_alive()
        session.warm_cache.flush()
        for key in (key_before, session._warm_model_key(fitted[0])):
            entry = entry_filename(MODEL_KIND, key)
            assert not os.path.exists(os.path.join(tmp_path, "warm", entry))
        # The only model entry is m_0's, published at construction.
        assert len(glob.glob(str(tmp_path / "warm" / "warm-model-*.entry"))) == 1

    def test_env_var_enables_warm_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WARM_CACHE_DIR", str(tmp_path / "warm"))
        session = _session(None)
        assert session.warm_cache is not None
        assert session.warm_cache.directory == os.path.abspath(
            str(tmp_path / "warm")
        )
        disabled = _session(False)
        assert disabled.warm_cache is None
        monkeypatch.delenv("REPRO_WARM_CACHE_DIR")
        assert _session(None).warm_cache is None

    def test_train_to_many_publishes_each_survivor_once(self, tmp_path):
        contracts = [
            ApproximationContract(*_CONTRACT),
            ApproximationContract(*_CONTRACT),  # duplicate
            ApproximationContract(*_EXTRA_CONTRACTS[0]),
        ]
        splits = _splits()
        cold = _session(str(tmp_path), splits)
        outcome = cold.train_to_many(contracts)
        cold.warm_cache.flush()
        # One entry per distinct (ε, δ) that ran its own size search (the
        # fused dispatch may satisfy a weaker contract from a stronger one).
        size_entries = glob.glob(str(tmp_path / "warm-size-*.entry"))
        assert 1 <= len(size_entries) <= 2
        warm = _session(str(tmp_path), splits)
        before = streaming_pass_count()
        warm_outcome = warm.train_to_many(contracts)
        assert streaming_pass_count() - before == 0
        assert [_result_row(result) for result in warm_outcome.results] == [
            _result_row(result) for result in outcome.results
        ]


# ----------------------------------------------------------------------
# Registry / service integration
# ----------------------------------------------------------------------
class TestRegistryWarmTier:
    def test_registry_shares_one_tier_and_reports_stats(self, tmp_path):
        splits = _splits()
        registry = SessionRegistry(warm_cache=str(tmp_path))
        spec = LogisticRegressionSpec(regularization=1e-3)
        first = registry.get_or_create(
            "a", spec, splits.train, splits.holdout, **_SESSION_KWARGS
        )
        second = registry.get_or_create(
            "b", spec, splits.train, splits.holdout, rng=1, n_parameter_samples=32,
            initial_sample_size=300,
        )
        assert first.warm_cache is registry.warm_cache
        assert second.warm_cache is registry.warm_cache
        first.train_to(ApproximationContract(*_CONTRACT))
        registry.warm_cache.flush()
        warm_stats = registry.stats().warm
        assert warm_stats is not None and warm_stats.writes >= 1
        # Explicit kwargs win over the registry tier.
        opted_out = registry.get_or_create(
            "c", spec, splits.train, splits.holdout, warm_cache=False,
            **_SESSION_KWARGS,
        )
        assert opted_out.warm_cache is None

    def test_registry_false_forces_members_cold(self, tmp_path, monkeypatch):
        """Registry-level ``warm_cache=False`` beats the environment."""
        monkeypatch.setenv("REPRO_WARM_CACHE_DIR", str(tmp_path / "warm"))
        splits = _splits()
        registry = SessionRegistry(warm_cache=False)
        session = registry.get_or_create(
            "a", LogisticRegressionSpec(regularization=1e-3), splits.train,
            splits.holdout, **_SESSION_KWARGS,
        )
        assert registry.warm_cache is None
        assert session.warm_cache is None

    def test_registry_without_tier_reports_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_WARM_CACHE_DIR", raising=False)
        registry = SessionRegistry()
        assert registry.warm_cache is None
        assert registry.stats().warm is None

    def test_service_forwards_warm_cache_to_default_registry(self, tmp_path):
        service = CoalescingService(
            warm_cache=str(tmp_path), start_housekeeping=False
        )
        try:
            assert service.registry.warm_cache is not None
        finally:
            service.close()
        with pytest.raises(ServingError):
            CoalescingService(
                SessionRegistry(), warm_cache=str(tmp_path),
                start_housekeeping=False,
            )


# ----------------------------------------------------------------------
# Fault injection: an unusable warm directory
# ----------------------------------------------------------------------
class TestUnusableWarmDirectory:
    def test_directory_below_a_regular_file_recomputes_bitwise(self, tmp_path):
        """A directory path that runs through a regular file stays unusable
        even for root (unlike ``chmod``): every read misses and every write
        is dropped, yet the session and the service answer exactly as a
        cold run does, and nothing counts as corruption."""
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"not a directory")
        warm_dir = str(blocker / "warm")
        contracts = [ApproximationContract(*pair) for pair in (_CONTRACT, *_EXTRA_CONTRACTS)]
        splits = _splits()
        control = _session(False, splits)
        expected = [_result_row(control.train_to(contract)) for contract in contracts]
        expected_answers = [control.answer(c).estimate.epsilon for c in contracts]

        session = _session(warm_dir, splits)
        assert [_result_row(session.train_to(c)) for c in contracts] == expected
        assert [session.answer(c).estimate.epsilon for c in contracts] == expected_answers

        service = CoalescingService(warm_cache=warm_dir, start_housekeeping=False)
        try:
            served = [
                _result_row(
                    service.train_to_sync(
                        "lr",
                        contract,
                        spec=LogisticRegressionSpec(regularization=1e-3),
                        train=splits.train,
                        holdout=splits.holdout,
                        **_SESSION_KWARGS,
                    )
                )
                for contract in contracts
            ]
            answers = [
                service.answer_sync("lr", c).estimate.epsilon for c in contracts
            ]
            assert service.registry.warm_cache is session.warm_cache
        finally:
            service.close()
        assert served == expected
        assert answers == expected_answers

        tier = session.warm_cache
        tier.flush()
        stats = tier.stats()
        assert stats.dropped_writes >= 1
        assert stats.quarantined == 0
        assert (stats.hits, stats.writes, stats.entries) == (0, 0, 0)


# ----------------------------------------------------------------------
# Every byte of an entry is checked
# ----------------------------------------------------------------------
def _flip_each_byte(tier: WarmCacheTier, path: str, recompute) -> int:
    """Flip each byte of the entry at ``path`` in turn and recompute.

    Every flip must be a quarantined miss whose recompute returns what the
    pristine entry held, and the write-behind must republish the pristine
    bytes.  Returns the number of bytes flipped.
    """
    with open(path, "rb") as handle:
        pristine = handle.read()
    expected = recompute()  # served from the pristine entry
    for index in range(len(pristine)):
        blob = bytearray(pristine)
        blob[index] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        quarantined = tier.stats().quarantined
        assert recompute() == expected, index
        tier.flush()
        assert tier.stats().quarantined == quarantined + 1, index
        with open(path, "rb") as handle:
            assert handle.read() == pristine, index
    return len(pristine)


def _small_session(tier: WarmCacheTier) -> EstimationSession:
    """A session whose entries are a few hundred bytes and whose fits take
    about a millisecond, so every byte of an entry can be flipped."""
    splits = train_holdout_test_split(
        higgs_like(n_rows=1_000, n_features=4, seed=13),
        SplitSpec(holdout_fraction=0.2, test_fraction=0.1),
        rng=np.random.default_rng(9),
    )
    return EstimationSession(
        LogisticRegressionSpec(regularization=1e-3),
        splits.train,
        splits.holdout,
        warm_cache=tier,
        rng=0,
        n_parameter_samples=8,
        initial_sample_size=100,
    )


class TestEveryByteIsChecked:
    def test_each_flipped_byte_of_a_diff_entry_recomputes(self, tmp_path):
        session = _small_session(WarmCacheTier(tmp_path))
        theta, n = session.initial_model.theta, 400
        cold = session.sorted_differences(theta, n).tobytes()
        session.warm_cache.flush()
        key = session._warm_diff_key((session._theta_digest(theta), n, session.full_size))
        path = os.path.join(tmp_path, entry_filename(DIFF_KIND, key))

        def recompute() -> bytes:
            session._diff_cache.clear()
            return session.sorted_differences(theta, n).tobytes()

        assert recompute() == cold
        assert _flip_each_byte(session.warm_cache, path, recompute) > 200

    def test_each_flipped_byte_of_a_model_entry_refits(self, tmp_path, fit_calls):
        session = _small_session(WarmCacheTier(tmp_path))
        n = session.initial_sample_size + 1
        cold = _optimization_row(session._train_cached(n)[0])
        session.warm_cache.flush()
        path = os.path.join(tmp_path, entry_filename(MODEL_KIND, session._warm_model_key(n)))

        def recompute() -> tuple:
            session._model_cache.clear()
            return _optimization_row(session._train_cached(n)[0])

        assert recompute() == cold
        del fit_calls[:]
        flipped = _flip_each_byte(session.warm_cache, path, recompute)
        assert flipped > 200
        assert fit_calls == [n] * flipped  # each flip refits m_n once


# ----------------------------------------------------------------------
# Fault injection: the disk fills mid-write
# ----------------------------------------------------------------------
class TestFullDisk:
    def test_enospc_mid_write_publishes_nothing(self, tmp_path, full_disk):
        tier = WarmCacheTier(tmp_path)
        tier.put(DIFF_KIND, "k1", _payload())
        tier.flush()
        ((temp, landed),) = full_disk
        assert 0 < landed < len(serialize_entry(DIFF_KIND, "k1", _payload()))
        assert not os.path.exists(temp)
        assert os.listdir(tmp_path) == []
        assert tier.get(DIFF_KIND, "k1") is None
        stats = tier.stats()
        assert (stats.dropped_writes, stats.quarantined) == (1, 0)
        assert (stats.writes, stats.entries, stats.hits) == (0, 0, 0)

    def test_session_on_a_full_disk_answers_bitwise(self, tmp_path, full_disk):
        contracts = [ApproximationContract(*pair) for pair in (_CONTRACT, *_EXTRA_CONTRACTS)]
        splits = _splits()
        control = _session(False, splits)
        expected = [_result_row(control.train_to(contract)) for contract in contracts]
        expected_answers = [control.answer(c).estimate.epsilon for c in contracts]

        session = _session(WarmCacheTier(tmp_path), splits)
        assert _optimization_row(session.initial_model) == _optimization_row(
            control.initial_model
        )
        assert [_result_row(session.train_to(c)) for c in contracts] == expected
        assert [session.answer(c).estimate.epsilon for c in contracts] == expected_answers
        tier = session.warm_cache
        tier.flush()
        stats = tier.stats()
        assert stats.dropped_writes == len(full_disk) >= 1
        assert stats.quarantined == 0
        assert (stats.hits, stats.writes, stats.entries) == (0, 0, 0)
        assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------------
# Multi-process contention
# ----------------------------------------------------------------------
class TestMultiProcess:
    def test_concurrent_workers_share_one_warm_dir(self, tmp_path):
        """Overlapping contracts, one directory, no torn reads, identical
        answers — every worker must match a serial cold run bitwise."""
        contracts = [_CONTRACT, *_EXTRA_CONTRACTS, _CONTRACT]
        serial = _session(False)
        expected = [
            _result_row(serial.train_to(ApproximationContract(*pair)))
            for pair in contracts
        ]
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_serve_worker, args=(str(tmp_path), contracts, queue)
            )
            for _ in range(3)
        ]
        for worker in workers:
            worker.start()
        outcomes = [queue.get(timeout=300) for _ in workers]
        for worker in workers:
            worker.join(timeout=300)
            assert worker.exitcode == 0
        for _pid, rows, _passes, quarantined in outcomes:
            assert rows == expected
            assert quarantined == 0
        # The directory holds only verifiable content-addressed entries.
        follower = _session(str(tmp_path))
        before = streaming_pass_count()
        replay = [
            _result_row(follower.train_to(ApproximationContract(*pair)))
            for pair in contracts
        ]
        assert streaming_pass_count() - before == 0
        assert replay == expected
