"""Cross-process warm cache tier: digest-keyed persistent artifacts.

The paper's serving economy — a repeat (ε, δ) contract costs a quantile
lookup, not k model trainings — would otherwise die at the process
boundary: every restart, and every one of N co-located serving processes,
would recompute identical sorted-difference vectors, size-search brackets
and trained models anew.  :class:`WarmCacheTier` is the durable
second tier beneath the session's three in-memory caches
(:meth:`repro.core.caching.LRUCache.get_or_compute` probes it on a miss
before computing), the same shape as a persistent KV / compilation cache in
an inference stack.  It holds three entry kinds: sorted-difference vectors
(:data:`DIFF_KIND`), size-search outcomes (:data:`SIZE_KIND`) and trained
models with their optimizer record (:data:`MODEL_KIND`) — every m_n and
the session's initial model m_0 — so a restarted process fits no model.

* **self-describing entries** — each artifact is one flat file
  (``warm-<kind>-<digest>.entry``), laid out as a magic line, the header
  length (8 bytes, little-endian), a canonical JSON header (the kind, the
  full key string, and each member's name, dtype and shape in sorted name
  order; 0-d members stay 0-d), the member bytes (each starting at an
  8-byte-aligned offset, zero padding between), and a 32-byte blake2b over
  every preceding byte; nothing outside the file is needed to validate it,
  so there is no manifest to keep consistent across processes;
* **content-addressed, deterministic bytes** — the file name is a digest
  of the key and the layout has no timestamps or free choices, so two
  processes racing to publish the same key write *byte-identical* files
  and last-writer-wins is benign;
* **crash-safe publication** — writes go to a unique temp file
  (``<name>.tmp-<pid>-<nonce>``) and become visible only through one
  atomic ``os.replace``; a reader can never observe a torn entry, a
  failed write (a full disk) removes its temp file, and a SIGKILL
  mid-write leaves only an invisible temp file the next GC sweeps up;
* **verification + quarantine on every read** — :meth:`WarmCacheTier.get`
  reads the file in one ``read()`` and checks the digest over the whole
  file, then the kind and key; a flipped or truncated byte anywhere (or a
  key collision, or a malformed header) moves the entry into a
  ``quarantine/`` subdirectory — mirroring the tamper semantics of
  :meth:`repro.data.store.shard_store.ShardStore.verify`, but recovering
  by recomputation instead of raising — and reports a miss, so a
  corrupted entry can never surface a wrong answer; a file that cannot
  be opened (absent, or behind an unusable directory) is a plain miss,
  not corruption.  A hit returns read-only views into the bytes read;
* **byte-bounded mtime-GC** — after each write the tier deletes
  oldest-first until the directory is back under ``max_bytes`` (and
  removes aged temp files left by crashed writers).  Quarantined files
  count toward the bound too and go first, oldest first, before any live
  entry: they are kept only for post-mortems, so a disk that keeps
  corrupting entries cannot grow the directory without limit.  Entry
  files of the earlier ``.npz`` layout (``warm-*.npz``) are never parsed
  — a get looks only for the current name, so each is a plain miss — but
  they count toward the bound and go oldest-first like any other entry;
* **async write-behind** — entries are published from a background
  thread so the serving path never waits on disk; a bounded queue drops
  (and counts) writes under pressure rather than blocking.

Keys are built by the pure functions :func:`diff_entry_key` /
:func:`size_entry_key` / :func:`model_entry_key` from content digests
only.  Diff and size keys fold in the model-spec digest, the holdout
content digest, a θ-digest, and a digest of the parameter sampler's actual
base draws (which captures both the H/J statistics and the RNG seed).
Draw-digest inclusion is what makes a warm hit *bitwise* equal to the cold
compute: equal keys imply the Monte-Carlo inputs match exactly, and
distinct statistics or seeds can never alias.  A model key pins every
input of ``spec.fit(nested_sample(n), theta0=θ₀)``: the spec digest, the
train content digest, a digest of the nested sampler's row permutation
(which captures the RNG seed and N), the θ₀ digest and n; the optimizer
settings are fixed constants (``repro.config``), so they need no field.
m_n starts from m_0's θ, m_0 from ``spec.initial_parameters(D0)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import queue
import struct
import threading
import time
import uuid
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.config import DEFAULT_WARM_CACHE_MAX_BYTES
from repro.linalg.utils import freeze

#: entry kinds the session layer persists.
DIFF_KIND = "diff"
SIZE_KIND = "size"
MODEL_KIND = "model"

_ENTRY_PREFIX = "warm-"
_ENTRY_SUFFIX = ".entry"
#: suffix of the earlier archive layout: never parsed, still counted and GC'd.
_LEGACY_SUFFIX = ".npz"
_MAGIC = b"repro-warm-entry 1\n"
_LENGTH = struct.Struct("<Q")
_HEADER_START = len(_MAGIC) + _LENGTH.size
_ALIGN = 8
_DIGEST_BYTES = 32
_TEMP_MARKER = ".tmp-"
_QUARANTINE_DIR = "quarantine"
#: temp files older than this are presumed abandoned by a crashed writer.
_TEMP_MAX_AGE_SECONDS = 600.0
#: bounded write-behind queue; submissions beyond it are dropped, not blocked.
_WRITE_QUEUE_CAPACITY = 256


# ----------------------------------------------------------------------
# Digests and keys (pure functions — stable across processes by design)
# ----------------------------------------------------------------------
def array_digest(*arrays: np.ndarray) -> str:
    """Content digest of one or more arrays (dtype, shape and bytes)."""
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(array.dtype.str.encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _float_hex(value: float) -> str:
    """Exact (bit-level) spelling of a float for key strings."""
    return np.float64(value).tobytes().hex()


def diff_entry_key(
    *,
    spec_digest: str,
    holdout_digest: str,
    draws_digest: str,
    theta_digest: str,
    n: int,
    N: int,
    k: int,
) -> str:
    """The warm key of one sorted-difference vector.

    All keyword-only, so the key cannot depend on caller argument order;
    ``draws_digest`` hashes the sampler's actual base-draw block, which
    folds in the H/J statistics and the RNG seed (see module docstring).
    """
    return (
        f"{DIFF_KIND}|spec={spec_digest}|holdout={holdout_digest}"
        f"|draws={draws_digest}|theta={theta_digest}|n={int(n)}|N={int(N)}"
        f"|k={int(k)}"
    )


def size_entry_key(
    *,
    spec_digest: str,
    holdout_digest: str,
    draws_digest: str,
    theta_digest: str,
    n0: int,
    N: int,
    k: int,
    probe_batch: int,
    epsilon: float,
    delta: float,
) -> str:
    """The warm key of one size-search outcome (adds ε, δ, probe_batch)."""
    return (
        f"{SIZE_KIND}|spec={spec_digest}|holdout={holdout_digest}"
        f"|draws={draws_digest}|theta={theta_digest}|n0={int(n0)}|N={int(N)}"
        f"|k={int(k)}|probe={int(probe_batch)}"
        f"|eps={_float_hex(epsilon)}|delta={_float_hex(delta)}"
    )


def model_entry_key(
    *,
    spec_digest: str,
    train_digest: str,
    permutation_digest: str,
    theta0_digest: str,
    n: int,
) -> str:
    """The warm key of one trained model, m_0 or m_n.

    Pins every input of the fit: ``permutation_digest`` hashes the nested
    sampler's row permutation, so with the train digest it fixes the rows
    of the size-n sample, and ``theta0_digest`` the optimizer's start.
    """
    return (
        f"{MODEL_KIND}|spec={spec_digest}|train={train_digest}"
        f"|perm={permutation_digest}|theta0={theta0_digest}|n={int(n)}"
    )


def entry_filename(kind: str, key: str) -> str:
    """Content-addressed file name for ``key`` (same key → same name)."""
    digest = hashlib.blake2b(key.encode(), digest_size=16).hexdigest()
    return f"{_ENTRY_PREFIX}{kind}-{digest}{_ENTRY_SUFFIX}"


def _entry_digest(body: bytes | memoryview) -> bytes:
    return hashlib.blake2b(body, digest_size=_DIGEST_BYTES).digest()


def serialize_entry(kind: str, key: str, arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialise one entry to its deterministic flat bytes.

    Members go in sorted name order with their header fields spelled
    canonically, so the same (kind, key, payload) always yields the same
    bytes — two processes racing to publish one key write byte-identical
    files (the last-writer-wins guarantee).  Object arrays are refused.
    """
    members = {str(name): np.asarray(value, order="C") for name, value in arrays.items()}
    names = sorted(members)
    for name in names:
        if members[name].dtype.hasobject:
            raise ValueError(f"warm entry member {name!r} has an object dtype")
    header = json.dumps(
        {
            "kind": kind,
            "key": key,
            "members": [
                {
                    "name": name,
                    "dtype": members[name].dtype.str,
                    "shape": list(members[name].shape),
                }
                for name in names
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    parts = [_MAGIC, _LENGTH.pack(len(header)), header]
    offset = _HEADER_START + len(header)
    for name in names:
        data = members[name].tobytes()
        padding = -offset % _ALIGN
        parts += [bytes(padding), data]
        offset += padding + len(data)
    body = b"".join(parts)
    return body + _entry_digest(body)


def _parse_entry(blob: bytes, kind: str, key: str) -> dict[str, np.ndarray] | None:
    """The payload views of one entry's bytes; ``None`` unless it verifies.

    The digest is checked over the whole file first, so any flipped or
    truncated byte fails before the header is read; then the kind and key,
    and the member table must account for every byte up to the digest.
    """
    end = len(blob) - _DIGEST_BYTES
    if end < _HEADER_START or not blob.startswith(_MAGIC):
        return None
    if _entry_digest(memoryview(blob)[:end]) != blob[end:]:
        return None
    (length,) = _LENGTH.unpack_from(blob, len(_MAGIC))
    offset = _HEADER_START + length
    try:
        header = json.loads(blob[_HEADER_START:offset])
        if header["kind"] != kind or header["key"] != key:
            return None
        payload: dict[str, np.ndarray] = {}
        for member in header["members"]:
            dtype, shape = np.dtype(member["dtype"]), tuple(member["shape"])
            offset += -offset % _ALIGN
            count = math.prod(shape)
            payload[member["name"]] = freeze(
                np.frombuffer(blob, dtype=dtype, count=count, offset=offset).reshape(shape)
            )
            offset += count * dtype.itemsize
    except (KeyError, TypeError, ValueError):
        return None
    return payload if offset == end else None


#: (path, mtime, size) of one file under the warm directory.
_FileRow = tuple[str, float, int]


def _scan_files(directory: str, accept: Callable[[str], bool]) -> list[_FileRow]:
    """One row per accepted regular file in ``directory``, oldest first."""
    rows: list[_FileRow] = []
    try:
        with os.scandir(directory) as it:
            for item in it:
                if not (item.is_file() and accept(item.name)):
                    continue
                try:
                    stat = item.stat()
                except OSError:
                    continue
                rows.append((item.path, stat.st_mtime, stat.st_size))
    except OSError:
        return []
    rows.sort(key=lambda row: row[1])
    return rows


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WarmCacheStats:
    """Immutable snapshot of one tier's counters and directory occupancy.

    ``hits``/``misses`` count :meth:`WarmCacheTier.get` probes;
    ``quarantined`` counts entries moved aside for a failed digest/key
    check or parse error; ``writes`` counts entries actually published,
    ``dropped_writes`` write-behind submissions shed by the bounded queue;
    ``gc_removed`` files deleted by the byte-bounded mtime-GC.
    ``entries``/``bytes`` describe the directory at snapshot time:
    ``entries`` counts servable entry files, and ``bytes`` every file the
    byte bound covers, the ``quarantine/`` subdirectory's included.
    """

    directory: str
    hits: int
    misses: int
    writes: int
    dropped_writes: int
    quarantined: int
    gc_removed: int
    entries: int
    bytes: int
    max_bytes: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from disk (0.0 when never probed)."""
        return self.hits / self.requests if self.requests else 0.0


# ----------------------------------------------------------------------
# The tier
# ----------------------------------------------------------------------
class WarmCacheTier:
    """A directory of digest-verified, crash-safe flat entry files.

    Parameters
    ----------
    directory:
        The shared warm-cache directory (created on first use).  Safe to
        share across threads, sessions and processes: entries are
        content-addressed, published atomically, and verified on read.
    max_bytes:
        Byte bound for the directory; after each write an mtime-GC deletes
        oldest entries until the bound holds again.

    :meth:`put` enqueues the entry for a background daemon thread and
    returns immediately (a full queue drops the write and counts it — the
    tier is an optimisation, never a blocking dependency); :meth:`flush`
    waits for the queue to drain.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        max_bytes: int = DEFAULT_WARM_CACHE_MAX_BYTES,
    ) -> None:
        self.directory = os.fspath(directory)
        self.max_bytes = max(1, int(max_bytes))
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._writes = 0  # guarded-by: _lock
        self._dropped_writes = 0  # guarded-by: _lock
        self._quarantined = 0  # guarded-by: _lock
        self._gc_removed = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._writer: threading.Thread | None = None  # guarded-by: _lock
        self._queue: queue.Queue[tuple[str, str, dict[str, np.ndarray]] | None] = (
            queue.Queue(maxsize=_WRITE_QUEUE_CAPACITY)
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, kind: str, key: str) -> dict[str, np.ndarray] | None:
        """Load, verify and return the payload for ``key`` (``None`` = miss).

        One ``read()`` of the entry file, then the whole-file digest, then
        the kind and key.  Every returned array is a read-only view into
        the bytes read (the caller typically publishes it straight into a
        shared in-memory cache).  A file that cannot be opened or read —
        absent, or behind an unusable directory — is a plain miss.  A file
        that reads but fails to verify — any flipped or truncated byte, a
        kind/key mismatch (a digest collision or a copied entry), a
        malformed header — is quarantined and reported as a miss, so
        corruption costs a recompute, never a wrong answer.
        """
        path = os.path.join(self.directory, entry_filename(kind, key))
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            with self._lock:
                self._misses += 1
            return None
        payload = _parse_entry(blob, kind, key)
        if payload is None:
            self._quarantine(path)
            with self._lock:
                self._misses += 1
            return None
        with self._lock:
            self._hits += 1
        return payload

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, kind: str, key: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Publish (or re-publish) the payload for ``key``.

        The entry lands on the background write-behind queue (dropped and
        counted if the queue is full, or after :meth:`close`).  Publication
        is atomic: readers see the previous entry or the new one, never a
        torn file.
        """
        payload = {str(name): np.asarray(value, order="C") for name, value in arrays.items()}
        with self._lock:
            if self._closed:
                self._dropped_writes += 1
                return
            self._ensure_writer_locked()
        try:
            self._queue.put_nowait((kind, key, payload))
        except queue.Full:
            with self._lock:
                self._dropped_writes += 1

    def flush(self) -> None:
        """Block until every queued write-behind entry has been published."""
        self._queue.join()

    def close(self) -> None:
        """Drain the write-behind queue and stop the writer.  Idempotent.

        Later :meth:`put` calls are dropped (and counted); :meth:`get`
        keeps working — the directory outlives the tier object by design.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            writer = self._writer
        if writer is not None:
            self._queue.put(None)
            writer.join()

    def _ensure_writer_locked(self) -> None:  # repro-lint: holds=_lock
        if self._writer is None:
            self._writer = threading.Thread(
                target=self._writer_loop,
                name="repro-warm-cache-writer",
                daemon=True,
            )
            self._writer.start()

    def _writer_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            kind, key, payload = item
            try:
                self._write_entry(kind, key, payload)
            except Exception:
                # A failing disk must never take the writer thread (and
                # with it every later flush()) down; the write is simply
                # lost and the entry recomputes next time.
                with self._lock:
                    self._dropped_writes += 1
            finally:
                self._queue.task_done()

    def _write_entry(
        self, kind: str, key: str, payload: dict[str, np.ndarray]
    ) -> None:
        """Serialise, write to a temp file, atomically rename, then GC."""
        data = serialize_entry(kind, key, payload)
        final_path = os.path.join(self.directory, entry_filename(kind, key))
        temp_path = (
            f"{final_path}{_TEMP_MARKER}{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(temp_path, "wb") as handle:
                handle.write(data)
            os.replace(temp_path, final_path)
        except OSError:
            with self._lock:
                self._dropped_writes += 1
            try:
                os.remove(temp_path)
            except OSError:
                pass
            return
        with self._lock:
            self._writes += 1
        self.gc()

    # ------------------------------------------------------------------
    # Quarantine and GC
    # ------------------------------------------------------------------
    def _quarantine(self, path: str) -> None:
        """Move a failed entry aside (mirrors ShardStore.verify semantics).

        The file is preserved under ``quarantine/`` for post-mortems
        rather than deleted; if even the move fails (e.g. a concurrent
        quarantine already claimed it) the entry is removed so it cannot
        be re-served.
        """
        quarantine_dir = os.path.join(self.directory, _QUARANTINE_DIR)
        target = os.path.join(quarantine_dir, os.path.basename(path))
        try:
            os.makedirs(quarantine_dir, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass
        with self._lock:
            self._quarantined += 1

    def _scan(self) -> tuple[list[_FileRow], list[_FileRow]]:
        """Entry files, then quarantined files, each oldest first."""
        entries = _scan_files(
            self.directory,
            lambda name: name.startswith(_ENTRY_PREFIX)
            and name.endswith((_ENTRY_SUFFIX, _LEGACY_SUFFIX)),
        )
        quarantined = _scan_files(
            os.path.join(self.directory, _QUARANTINE_DIR), lambda name: True
        )
        return entries, quarantined

    def gc(self) -> int:
        """Enforce the byte bound (oldest-mtime first); sweep stale temps.

        The bound covers quarantined files too, and they go first: no live
        entry is removed while a quarantined file remains.  Concurrent GCs
        from co-located processes are safe: deletions race benignly (a
        vanished file is skipped) and every surviving entry is still
        individually verified on read.  Returns files removed.
        """
        removed = 0
        try:
            with os.scandir(self.directory) as it:
                stale = [
                    item.path
                    for item in it
                    if item.is_file() and _TEMP_MARKER in item.name
                ]
        except OSError:
            stale = []
        now = time.time()
        for path in stale:
            try:
                if now - os.stat(path).st_mtime > _TEMP_MAX_AGE_SECONDS:
                    os.remove(path)
                    removed += 1
            except OSError:
                continue
        entries, quarantined = self._scan()
        rows = quarantined + entries
        total = sum(size for _, _, size in rows)
        for path, _, size in rows:
            if total <= self.max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            removed += 1
        if removed:
            with self._lock:
                self._gc_removed += removed
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> WarmCacheStats:
        """A snapshot of counters plus the directory's current occupancy."""
        entries, quarantined = self._scan()
        with self._lock:
            return WarmCacheStats(
                directory=self.directory,
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                dropped_writes=self._dropped_writes,
                quarantined=self._quarantined,
                gc_removed=self._gc_removed,
                entries=len(entries),
                bytes=sum(size for _, _, size in entries + quarantined),
                max_bytes=self.max_bytes,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self.stats()
        return (
            f"WarmCacheTier({self.directory!r}, entries={snapshot.entries}, "
            f"bytes={snapshot.bytes}/{self.max_bytes}, hits={snapshot.hits}, "
            f"misses={snapshot.misses}, quarantined={snapshot.quarantined})"
        )


# ----------------------------------------------------------------------
# Process-wide shared tiers
# ----------------------------------------------------------------------
_shared_lock = threading.Lock()
_shared_tiers: dict[str, WarmCacheTier] = {}  # guarded-by: _shared_lock


def default_warm_cache_dir() -> str:
    """The configured warm-cache directory ('' = disabled).

    Reads the ``REPRO_WARM_CACHE_DIR`` environment variable on every call,
    so tests and CI can retarget it without re-importing anything.
    """
    return os.environ.get("REPRO_WARM_CACHE_DIR", "").strip()


def shared_warm_cache(directory: str | os.PathLike[str]) -> WarmCacheTier:
    """The process-wide tier for ``directory`` (one instance per real path).

    Co-located sessions and registries sharing a directory must share the
    write-behind thread and the counters too, so resolution memoises per
    absolute path.
    """
    path = os.path.abspath(os.fspath(directory))
    with _shared_lock:
        tier = _shared_tiers.get(path)
        if tier is None:
            tier = WarmCacheTier(path)
            _shared_tiers[path] = tier
        return tier


def resolve_warm_cache(
    warm_cache: WarmCacheTier | str | os.PathLike[str] | Literal[False] | None = None,
) -> WarmCacheTier | None:
    """Resolve a constructor-facing ``warm_cache`` argument to a tier.

    ``None`` resolves through :func:`default_warm_cache_dir` (``None``
    when ``REPRO_WARM_CACHE_DIR`` is unset), ``False`` disables the tier
    even when the environment configures one (tests asserting cold-path
    behaviour pin this), a path selects the process-shared tier for that
    directory, and an existing :class:`WarmCacheTier` passes through.
    """
    if isinstance(warm_cache, WarmCacheTier):
        return warm_cache
    if warm_cache is False:
        return None
    if warm_cache is None:
        directory = default_warm_cache_dir()
        return shared_warm_cache(directory) if directory else None
    return shared_warm_cache(warm_cache)
