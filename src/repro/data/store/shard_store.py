"""Out-of-core dataset store: ``.npy`` row shards behind one manifest.

The paper's whole premise is training on a small sample while the full
dataset is too large to touch more than necessary — yet an in-memory
:class:`~repro.data.dataset.Dataset` caps N at RAM.  This module is the
storage tier that removes the cap:

* :class:`ShardStoreWriter` appends row blocks and spills them to disk as
  fixed-size ``.npy`` shards, never holding more than one shard in memory —
  datasets that never fit in RAM can be written block by block;
* :class:`ShardStore` owns a written directory: it opens the manifest,
  structurally validates every shard file against it, and can fully
  re-verify the per-shard and manifest content digests (tamper detection);
* :class:`ShardedDataset` is the read side — a *block source* that yields
  zero-copy memory-mapped row blocks to the streaming sharded holdout
  engine (:mod:`repro.evaluation.streaming`), and gathers arbitrary row
  subsets for the samplers (:class:`repro.data.sampling.UniformSampler`
  draws training rows from shards by index).  Only the rows actually
  touched are ever resident.

Digest compatibility is the load-bearing design point:
``ShardedDataset.content_digest()`` returns the manifest-level digest,
which is computed over the exact byte sequence
:meth:`repro.data.dataset.Dataset.content_digest` hashes — so a sharded
and an in-memory copy of the same data fingerprint identically, and the
serving registry (:mod:`repro.core.registry`) invalidates stale sessions
without ever materialising the store.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from collections import OrderedDict
from collections.abc import Iterable, Iterator

import numpy as np

from repro.config import STORE_SHARD_ROWS
from repro.data.dataset import (
    Dataset,
    content_hasher,
    hash_feature_header,
    hash_label_header,
)
from repro.data.store.manifest import (
    MANIFEST_FILENAME,
    LabelMoments,
    ShardInfo,
    ShardManifest,
)
from repro.data.store.statistics_index import StatisticsIndex, _file_digest
from repro.exceptions import DataError

#: feature matrices are always stored as little-endian float64, matching the
#: coercion :class:`~repro.data.dataset.Dataset` applies on construction.
_X_DTYPE = np.dtype(np.float64)


def _digest_arrays(X: np.ndarray, y: np.ndarray | None) -> str:
    """The digest ``Dataset(X, y).content_digest()`` would produce.

    Built from the shared byte-format helpers in
    :mod:`repro.data.dataset` (one source of truth) rather than by
    constructing a ``Dataset`` — construction would flip the writeable
    flag on the caller's arrays as a side effect.
    """
    hasher = content_hasher()
    hash_feature_header(hasher, X.shape, X.dtype)
    hasher.update(np.ascontiguousarray(X))
    if y is None:
        hash_label_header(hasher, None)
    else:
        hash_label_header(hasher, y.shape, y.dtype)
        hasher.update(np.ascontiguousarray(y))
    return hasher.hexdigest()


def _open_shard_array(
    directory: str, file_name: str, expected_shape: tuple, expected_dtype: np.dtype
) -> np.ndarray:
    """Memory-map one shard file, validating its header against the manifest."""
    path = os.path.join(directory, file_name)
    try:
        array = np.load(path, mmap_mode="r")
    except FileNotFoundError as exc:
        raise DataError(f"shard store is missing shard file {file_name!r}") from exc
    except ValueError as exc:
        raise DataError(f"corrupt shard file {file_name!r}: {exc}") from exc
    except OSError as exc:
        # Not necessarily corruption — EMFILE/EACCES and friends land here;
        # say what actually failed so operators do not chase phantom
        # data-integrity problems.
        raise DataError(f"cannot open shard file {file_name!r}: {exc}") from exc
    if tuple(array.shape) != tuple(expected_shape) or array.dtype != expected_dtype:
        raise DataError(
            f"shard file {file_name!r} holds {array.dtype}{array.shape} but the "
            f"manifest expects {expected_dtype}{tuple(expected_shape)}"
        )
    return array


def _stream_content_digest(manifest: ShardManifest, directory: str) -> str:
    """The materialised dataset's content digest, streamed shard by shard.

    Feeds :func:`hashlib.blake2b` the same byte sequence
    ``Dataset.content_digest()`` hashes — shape header, X dtype, every X
    shard in row order, the y header, every y shard — while only memory
    mapping one shard at a time.  O(store) I/O, O(1) resident memory.
    """
    x_dtype = np.dtype(manifest.x_dtype)
    hasher = content_hasher()
    hash_feature_header(hasher, (manifest.n_rows, manifest.n_features), x_dtype)
    for shard in manifest.shards:
        X = _open_shard_array(
            directory, shard.x_file, (shard.n_rows, manifest.n_features), x_dtype
        )
        hasher.update(np.ascontiguousarray(X))
    if manifest.y_dtype is None:
        hash_label_header(hasher, None)
    else:
        y_dtype = np.dtype(manifest.y_dtype)
        hash_label_header(hasher, (manifest.n_rows,), y_dtype)
        for shard in manifest.shards:
            y = _open_shard_array(directory, shard.y_file, (shard.n_rows,), y_dtype)
            hasher.update(np.ascontiguousarray(y))
    return hasher.hexdigest()


class ShardStoreWriter:
    """Builds a shard store by appending row blocks (out-of-core write path).

    Blocks are buffered until a full shard (``shard_rows`` rows) is
    available, then spilled to ``shard-NNNNN.x.npy`` / ``.y.npy``; peak
    memory is one shard plus one incoming block no matter how many rows are
    written.  ``close()`` flushes the remainder shard, computes the
    manifest-level content digest by streaming the written files back, and
    publishes ``manifest.json`` atomically — a crash mid-write therefore
    leaves a directory *without* a manifest, which :meth:`ShardStore.open`
    rejects, so a partial store can never be served.

    Use as a context manager, or pair :meth:`append` with :meth:`close`::

        with ShardStoreWriter("/data/holdout", shard_rows=65536) as writer:
            for X_block, y_block in produce_blocks():
                writer.append(X_block, y_block)
        store = writer.store

    Reopening an existing store with ``append=True`` seeds the writer from
    the published manifest and grows it: existing shard files are left
    untouched (only manifest-unreferenced leftovers are cleared), new
    shards continue the index sequence, label moments keep folding, and the
    statistics sidecar entries are carried into the republished manifest —
    they remain valid for the shards they cover.  Shard *writes* are
    O(new rows); the close-time content digest is an O(store) streaming
    re-hash, inherent to the header-first digest byte format (the final row
    count leads the hashed bytes, and a sequential hash cannot be
    prepended to).  The manifest republish is atomic, so a crash mid-append
    leaves the previous manifest serving the previous store consistently.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        shard_rows: int = STORE_SHARD_ROWS,
        name: str = "dataset",
        metadata: dict | None = None,
        overwrite: bool = False,
        append: bool = False,
        content_digest: str | None = None,
    ):
        if shard_rows < 1:
            raise DataError("shard_rows must be at least 1")
        if append and overwrite:
            raise DataError("append and overwrite are mutually exclusive")
        # Optional precomputed digest of exactly the rows about to be
        # appended (e.g. Dataset.content_digest() when persisting an
        # in-memory dataset).  It spares close() the re-read hashing pass
        # over the feature shards; the caller vouches it matches the data.
        self._known_content_digest = content_digest
        self._directory = os.fspath(directory)
        self._shard_rows = int(shard_rows)
        self._name = name
        self._metadata = dict(metadata or {})
        self._pending_X: list[np.ndarray] = []
        self._pending_y: list[np.ndarray] = []
        self._pending_rows = 0
        self._n_features: int | None = None
        self._y_dtype: np.dtype | None = None
        self._supervised: bool | None = None
        self._shards: list[ShardInfo] = []
        self._moments = LabelMoments(count=0, mean=0.0, m2=0.0)
        self._statistics: tuple = ()
        self._store: ShardStore | None = None
        self._closed = False

        manifest_path = os.path.join(self._directory, MANIFEST_FILENAME)
        if append:
            if not os.path.exists(manifest_path):
                raise DataError(
                    f"{self._directory!r} holds no shard store to append to"
                )
            manifest = ShardManifest.load(self._directory)
            self._name = manifest.name
            self._metadata = {**manifest.metadata, **self._metadata}
            self._n_features = manifest.n_features
            self._y_dtype = (
                None if manifest.y_dtype is None else np.dtype(manifest.y_dtype)
            )
            self._supervised = manifest.is_supervised
            self._shards = list(manifest.shards)
            if manifest.label_moments is not None:
                self._moments = manifest.label_moments
            # Sidecars stay valid for the shards they cover; the refresh
            # path computes summaries for the new shards only.
            self._statistics = manifest.statistics
            # The old manifest stays in place until close() republishes —
            # readers keep serving the pre-append store consistently, and a
            # crash mid-append at worst strands unreferenced new shard
            # files (cleared by the next writer).  Only clear leftovers the
            # manifest does not reference.
            referenced = {
                file
                for shard in manifest.shards
                for file in (shard.x_file, shard.y_file)
                if file is not None
            }
            for entry in os.listdir(self._directory):
                if (
                    entry.startswith("shard-")
                    and entry.endswith(".npy")
                    and entry not in referenced
                ):
                    os.remove(os.path.join(self._directory, entry))
            return

        if os.path.exists(manifest_path):
            if not overwrite:
                raise DataError(
                    f"{self._directory!r} already holds a shard store "
                    "(pass overwrite=True to replace it, or append=True to "
                    "grow it)"
                )
            # Unlink the old manifest *before* writing anything: a crash
            # mid-rewrite must leave a manifest-less directory that
            # ShardStore.open rejects — never an old manifest over a mix of
            # old and new shard data, which would open cleanly and
            # fingerprint as the old content.
            os.remove(manifest_path)
        os.makedirs(self._directory, exist_ok=True)
        # Clear leftover shard and statistics-sidecar files unconditionally
        # (not only under overwrite): a crashed earlier write leaves shards
        # without a manifest, and a successful re-run must not strand those
        # alien files beside a store whose manifest no longer references
        # them.  Sidecars summarise the *old* rows, so a rewrite invalidates
        # them wholesale.
        for entry in os.listdir(self._directory):
            if (entry.startswith("shard-") and entry.endswith(".npy")) or (
                entry.startswith("stats-") and entry.endswith(".npz")
            ):
                os.remove(os.path.join(self._directory, entry))

    @property
    def store(self) -> "ShardStore":
        if self._store is None:
            raise DataError("writer not closed yet: no store to return")
        return self._store

    @staticmethod
    def _owned(block: np.ndarray, source: np.ndarray) -> np.ndarray:
        """A buffer-safe version of ``block`` (which was converted from ``source``).

        The dtype/contiguity conversions below are no-ops for already
        conforming input, so the buffered array can alias the *caller's*
        array — and a caller that reuses its block buffer (the natural ETL
        loop) would silently rewrite pending rows before they are flushed,
        corrupting the store while its digests verify clean.  Copy whenever
        the buffered array still shares writable memory with the caller.
        """
        if block.flags.writeable and np.may_share_memory(block, source):
            return block.copy()
        return block

    def append(self, X_block: np.ndarray, y_block: np.ndarray | None = None) -> None:
        """Append one row block; spills full shards to disk as they fill.

        The block is copied into the writer's buffer if it aliases the
        caller's (writable) memory, so the caller may freely reuse its
        block arrays between appends.
        """
        if self._closed:
            raise DataError("cannot append to a closed ShardStoreWriter")
        X_source = X_block
        X_block = self._owned(
            np.ascontiguousarray(X_block, dtype=_X_DTYPE), X_source
        )
        if X_block.ndim != 2 or X_block.shape[0] == 0:
            raise DataError(
                f"appended block must be a non-empty 2-D array, got {X_block.shape}"
            )
        if self._n_features is None:
            self._n_features = int(X_block.shape[1])
            self._supervised = y_block is not None
        if X_block.shape[1] != self._n_features:
            raise DataError(
                f"appended block has {X_block.shape[1]} features, store has "
                f"{self._n_features}"
            )
        if (y_block is not None) != self._supervised:
            raise DataError("all appended blocks must agree on having labels")
        if y_block is not None:
            y_source = y_block
            y_block = self._owned(np.ascontiguousarray(y_block), y_source)
            if y_block.shape != (X_block.shape[0],):
                raise DataError(
                    f"label block shape {y_block.shape} does not match "
                    f"{X_block.shape[0]} rows"
                )
            if self._y_dtype is None:
                self._y_dtype = y_block.dtype
            elif y_block.dtype != self._y_dtype:
                raise DataError(
                    f"label block dtype {y_block.dtype} does not match the "
                    f"store's {self._y_dtype}"
                )
            self._pending_y.append(y_block)
        self._pending_X.append(X_block)
        self._pending_rows += X_block.shape[0]
        while self._pending_rows >= self._shard_rows:
            self._flush_shard(self._shard_rows)

    def _take_pending(self, rows: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Pop exactly ``rows`` buffered rows as contiguous arrays.

        Copy-free when one buffer covers the request (the common case —
        every shard from :meth:`ShardStore.write` pops a single
        shard-aligned slice): a whole buffer is handed back as-is, a larger
        head is split by view.  Only a request spanning multiple buffers
        concatenates (which is the one case a copy is inherent); all
        buffered arrays are already contiguous, as are their row-slice
        views, so no extra contiguity pass is needed.
        """

        def take(buffers: list[np.ndarray]) -> np.ndarray:
            head = buffers[0]
            if head.shape[0] == rows:
                return buffers.pop(0)
            if head.shape[0] > rows:
                buffers[0] = head[rows:]
                return head[:rows]
            taken, filled = [], 0
            while filled < rows:
                head = buffers[0]
                need = rows - filled
                if head.shape[0] <= need:
                    taken.append(buffers.pop(0))
                    filled += head.shape[0]
                else:
                    taken.append(head[:need])
                    buffers[0] = head[need:]
                    filled += need
            return np.concatenate(taken, axis=0)

        X = take(self._pending_X)
        y = take(self._pending_y) if self._supervised else None
        self._pending_rows -= rows
        return X, y

    def _flush_shard(self, rows: int) -> None:
        X, y = self._take_pending(rows)
        index = len(self._shards)
        start = self._shards[-1].stop if self._shards else 0
        x_file = f"shard-{index:05d}.x.npy"
        y_file = None if y is None else f"shard-{index:05d}.y.npy"
        try:
            np.save(os.path.join(self._directory, x_file), X)
            if y is not None:
                np.save(os.path.join(self._directory, y_file), y)
        except BaseException:
            # A transient save failure (ENOSPC, EIO) must not consume the
            # rows: push them back so a retried append/close re-flushes
            # them — otherwise the retry would publish a *truncated* store
            # whose digests verify clean (undetectable data loss).  A
            # half-written shard file left behind is harmless: the retry
            # reuses the same index and overwrites it.
            self._pending_X.insert(0, X)
            if y is not None:
                self._pending_y.insert(0, y)
            self._pending_rows += rows
            raise
        if y is not None:
            self._moments = self._moments.merge(LabelMoments.from_block(y))
        self._shards.append(
            ShardInfo(
                index=index,
                start=start,
                stop=start + rows,
                x_file=x_file,
                y_file=y_file,
                digest=_digest_arrays(X, y),
            )
        )

    def close(self) -> "ShardStore":
        """Flush, digest, and publish the manifest; returns the opened store.

        Without a precomputed ``content_digest`` the manifest digest is
        computed by streaming the written shards back from disk — the
        digest byte format opens with the final ``(n_rows, n_features)``
        header, which a block-streaming writer only knows here, and a
        sequential hash cannot be prepended to, so the re-read pass is
        inherent to digest compatibility.  Callers that already hold the
        digest (``ShardStore.write``) pass it in and skip the pass.
        """
        if self._closed:
            return self.store
        if self._pending_rows:
            self._flush_shard(self._pending_rows)
        if not self._shards:
            raise DataError("shard store must contain at least one row")
        layout = ShardManifest(
            name=self._name,
            n_rows=self._shards[-1].stop,
            n_features=self._n_features,
            x_dtype=_X_DTYPE.str,
            y_dtype=None if self._y_dtype is None else self._y_dtype.str,
            shards=tuple(self._shards),
            content_digest="pending",
            label_moments=self._moments if self._supervised else None,
            metadata=self._metadata,
            statistics=self._statistics,
        )
        digest = self._known_content_digest
        if digest is None:
            digest = _stream_content_digest(layout, self._directory)
        manifest = dataclasses.replace(layout, content_digest=digest)
        manifest.save(self._directory)
        self._store = ShardStore(self._directory, manifest)
        # Marked closed only now: a transient failure in the digest pass or
        # the manifest save above leaves the writer retryable (shards are
        # already flushed, so a repeat close() just redoes digest + save)
        # instead of permanently wedged behind the early-return branch.
        self._closed = True
        return self._store

    def __enter__(self) -> "ShardStoreWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is None:
            self.close()


class ShardStore:
    """A written shard-store directory: manifest plus validated shard files.

    Construct through :meth:`write` (persist an in-memory dataset),
    :class:`ShardStoreWriter` (out-of-core block appends) or :meth:`open`
    (an existing directory).  Opening structurally validates every shard
    file's ``.npy`` header against the manifest — existence, shape, dtype —
    without reading row data; :meth:`verify` additionally re-hashes every
    shard and the manifest digest (full tamper detection, O(store) I/O).
    """

    def __init__(self, directory: str | os.PathLike, manifest: ShardManifest):
        self._directory = os.fspath(directory)
        self._manifest = manifest

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def write(
        cls,
        dataset: Dataset,
        directory: str | os.PathLike,
        *,
        shard_rows: int = STORE_SHARD_ROWS,
        name: str | None = None,
        overwrite: bool = False,
    ) -> "ShardStore":
        """Persist an in-memory :class:`Dataset` as a shard store.

        The dataset's own (memoised) content digest becomes the manifest
        digest directly — the written bytes are exactly the dataset's
        arrays, so no close-time re-read hashing pass is needed.
        """
        writer = ShardStoreWriter(
            directory,
            shard_rows=shard_rows,
            name=dataset.name if name is None else name,
            metadata=dict(dataset.metadata),
            overwrite=overwrite,
            content_digest=dataset.content_digest(),
        )
        for start in range(0, dataset.n_rows, shard_rows):
            stop = min(start + shard_rows, dataset.n_rows)
            y_block = None if dataset.y is None else dataset.y[start:stop]
            writer.append(dataset.X[start:stop], y_block)
        return writer.close()

    @classmethod
    def open(cls, directory: str | os.PathLike) -> "ShardStore":
        """Open an existing store, validating layout against the manifest.

        Checks every shard file's ``.npy`` header — existence, shape,
        dtype — up front, so a partial or mismatched store fails at open
        time.
        """
        manifest = ShardManifest.load(directory)
        store = cls(directory, manifest)
        x_dtype = np.dtype(manifest.x_dtype)
        y_dtype = None if manifest.y_dtype is None else np.dtype(manifest.y_dtype)
        for shard in manifest.shards:
            _open_shard_array(
                store._directory,
                shard.x_file,
                (shard.n_rows, manifest.n_features),
                x_dtype,
            )
            if shard.y_file is not None:
                _open_shard_array(
                    store._directory, shard.y_file, (shard.n_rows,), y_dtype
                )
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        return self._directory

    @property
    def manifest(self) -> ShardManifest:
        return self._manifest

    @property
    def n_rows(self) -> int:
        return self._manifest.n_rows

    @property
    def n_features(self) -> int:
        return self._manifest.n_features

    @property
    def n_shards(self) -> int:
        return self._manifest.n_shards

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardStore({self._directory!r}, rows={self.n_rows}, "
            f"features={self.n_features}, shards={self.n_shards})"
        )

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def append_shards(
        self,
        blocks: Iterable[tuple[np.ndarray, np.ndarray | None]],
        *,
        shard_rows: int = STORE_SHARD_ROWS,
    ) -> "ShardStore":
        """Grow this store by appending ``(X_block, y_block)`` pairs.

        Convenience wrapper over ``ShardStoreWriter(..., append=True)``:
        existing shards and statistics sidecars are untouched, new shards
        continue the sequence, and the manifest is republished atomically.
        This store object adopts the grown manifest; other handles (e.g. a
        long-lived :class:`ShardedDataset` in a serving session) pick it up
        via :meth:`ShardedDataset.reload`.  Returns ``self``.
        """
        writer = ShardStoreWriter(self._directory, shard_rows=shard_rows, append=True)
        for X_block, y_block in blocks:
            writer.append(X_block, y_block)
        grown = writer.close()
        self._manifest = grown.manifest
        return self

    # ------------------------------------------------------------------
    # Statistics sidecars
    # ------------------------------------------------------------------
    def statistics_index(self) -> "StatisticsIndex":
        """Read/write access to this store's per-shard statistics sidecars."""
        return StatisticsIndex(self)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Re-hash every shard and the manifest digest; raise on any mismatch.

        Full tamper detection: a flipped byte in any shard file changes
        that shard's digest, any change to the row data changes the
        manifest-level content digest, and the manifest's *derived* label
        moments — which feed the normalised regression metrics but are not
        part of the row-data digest — are re-derived from the label shards
        and compared exactly (the recompute replays the writer's
        per-shard-then-combine order, so matching stores match bitwise).
        Statistics sidecars are covered too: every listed sidecar file must
        exist, hash to its manifest digest, and reference only shard
        contents the manifest actually holds.
        O(store) sequential I/O, one shard resident at a time.
        """
        manifest = self._manifest
        x_dtype = np.dtype(manifest.x_dtype)
        y_dtype = None if manifest.y_dtype is None else np.dtype(manifest.y_dtype)
        moments = LabelMoments(count=0, mean=0.0, m2=0.0)
        for shard in manifest.shards:
            X = _open_shard_array(
                self._directory, shard.x_file, (shard.n_rows, manifest.n_features), x_dtype
            )
            y = (
                None
                if shard.y_file is None
                else _open_shard_array(self._directory, shard.y_file, (shard.n_rows,), y_dtype)
            )
            digest = _digest_arrays(X, y)
            if digest != shard.digest:
                raise DataError(
                    f"shard {shard.index} content digest mismatch "
                    f"(expected {shard.digest}, found {digest}): store tampered "
                    "or corrupted"
                )
            if y is not None:
                moments = moments.merge(LabelMoments.from_block(y))
        if manifest.y_dtype is not None and not manifest.label_moments.matches(moments):
            raise DataError(
                "shard store label moments mismatch "
                f"(manifest {manifest.label_moments}, derived {moments}): a "
                "tampered manifest would silently mis-scale normalised "
                "regression metrics"
            )
        digest = _stream_content_digest(manifest, self._directory)
        if digest != manifest.content_digest:
            raise DataError(
                "shard store content digest mismatch "
                f"(expected {manifest.content_digest}, found {digest})"
            )
        known_shards = {shard.digest for shard in manifest.shards}
        for entry in manifest.statistics:
            path = os.path.join(self._directory, entry.file)
            if not os.path.exists(path):
                raise DataError(
                    f"statistics sidecar {entry.file!r} is listed in the "
                    "manifest but missing on disk"
                )
            if _file_digest(path) != entry.digest:
                raise DataError(
                    f"statistics sidecar {entry.file!r} content digest mismatch: "
                    "sidecar tampered or corrupted"
                )
            orphaned = set(entry.shard_digests) - known_shards
            if orphaned:
                raise DataError(
                    f"statistics sidecar {entry.file!r} references shard "
                    f"contents the store does not hold: {sorted(orphaned)}"
                )

    # ------------------------------------------------------------------
    # The read side
    # ------------------------------------------------------------------
    def dataset(self, name: str | None = None) -> "ShardedDataset":
        """The store's block-source view (see :class:`ShardedDataset`)."""
        return ShardedDataset(self, name=name)


class ShardedDataset:
    """Zero-copy memory-mapped read side of a :class:`ShardStore`.

    Implements the :class:`repro.evaluation.streaming.BlockSource` protocol
    — ``n_rows`` / ``block_bounds`` / ``read_block`` — so the streaming
    sharded holdout engine, the estimation session and the serving registry
    accept it anywhere an in-memory holdout :class:`Dataset` is accepted.
    Block bounds are **snapped to shard boundaries**: a block never crosses
    a shard, so every block the engine sees is a zero-copy slice of one
    memory-mapped ``.npy`` file and no cross-shard row copies ever happen.

    For the *training* side, :meth:`take` gathers arbitrary row indices
    across shards (one shard resident at a time) into an in-memory
    :class:`Dataset` — this is how :class:`repro.data.sampling.UniformSampler`
    draws the paper's small training samples from an arbitrarily large
    store.
    """

    #: most shards whose memory maps one instance keeps open at a time.
    #: Streaming visits shards sequentially (1 live shard) and fan-out
    #: threads at most n_workers concurrently, so a small LRU serves every
    #: access pattern while bounding file descriptors — an unbounded cache
    #: on a many-thousand-shard store would exhaust the process fd limit.
    MAX_CACHED_SHARDS = 16

    def __init__(
        self, store: "ShardStore | str | os.PathLike", name: str | None = None
    ):
        if not isinstance(store, ShardStore):
            store = ShardStore.open(store)
        self._store = store
        self._name = store.manifest.name if name is None else name
        # The manifest this reader last adopted.  reload() diffs against it,
        # not against the store's live manifest: a writer appending through
        # the same ShardStore object replaces that one in place.
        self._adopted = store.manifest
        self._memmaps: OrderedDict[int, tuple[np.ndarray, np.ndarray | None]] = (
            OrderedDict()
        )  # guarded-by: _memmap_lock
        self._memmap_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Dataset-compatible surface
    # ------------------------------------------------------------------
    @property
    def store(self) -> ShardStore:
        return self._store

    @property
    def manifest(self) -> ShardManifest:
        return self._store.manifest

    @property
    def name(self) -> str:
        return self._name

    @property
    def metadata(self) -> dict:
        return dict(self.manifest.metadata)

    @property
    def n_rows(self) -> int:
        return self.manifest.n_rows

    @property
    def n_features(self) -> int:
        return self.manifest.n_features

    @property
    def is_supervised(self) -> bool:
        return self.manifest.is_supervised

    def __len__(self) -> int:
        return self.n_rows

    def content_digest(self) -> str:
        """The manifest-level digest — equal to the digest the materialised
        :class:`Dataset` would report, so registry fingerprinting needs no
        materialisation."""
        return self.manifest.content_digest

    def label_std(self) -> float:
        """Holdout label scale from the manifest moments (O(1), no I/O).

        Matches ``numpy.std(y)`` of the materialised labels to a few ulps
        (Chan-combined per-shard moments); the normalised regression
        families call this instead of touching ``.y``.
        """
        return self.manifest.label_std()

    def statistics_index(self) -> StatisticsIndex:
        """The owning store's statistics-sidecar index (shared manifest)."""
        return self._store.statistics_index()

    def reload(self) -> bool:
        """Re-read the manifest from disk; adopt any published growth.

        The serving refresh entry point: after another writer appended
        shards (:meth:`ShardStore.append_shards`), a long-lived reader
        calls ``reload()`` to pick the new manifest up.  Returns ``True``
        iff the *row data* changed (content digest moved); a republish that
        only touched statistics sidecars adopts silently and returns
        ``False``.  When the old shards survive as a digest-matching prefix
        of the new layout — the append case — the open memory maps are
        kept; any other change drops them so no stale map is ever served.
        """
        new_manifest = ShardManifest.load(self._store.directory)
        old_manifest = self._adopted
        if not new_manifest.extends(old_manifest):
            with self._memmap_lock:
                self._memmaps.clear()
        self._store._manifest = new_manifest
        self._adopted = new_manifest
        return new_manifest.content_digest != old_manifest.content_digest

    # ------------------------------------------------------------------
    # Block source protocol
    # ------------------------------------------------------------------
    def block_bounds(self, block_rows: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` bounds covering the store in order.

        Bounds are snapped to shard boundaries: each is at most
        ``block_rows`` rows *and* lies inside a single shard, so
        :meth:`read_block` on any returned bound is zero-copy.
        """
        if block_rows < 1:
            raise DataError("block_rows must be at least 1")
        bounds: list[tuple[int, int]] = []
        for shard in self.manifest.shards:
            for start in range(shard.start, shard.stop, block_rows):
                bounds.append((start, min(start + block_rows, shard.stop)))
        return bounds

    def _shard_arrays(self, index: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Lazily opened memory maps for one shard (bounded LRU per instance).

        At most :data:`MAX_CACHED_SHARDS` shards stay open; the eviction
        only drops this cache's reference — blocks handed out earlier keep
        their underlying maps alive through NumPy's base-array refcounting,
        so a reader holding an old block is never invalidated.
        """
        with self._memmap_lock:
            cached = self._memmaps.get(index)
            if cached is not None:
                self._memmaps.move_to_end(index)
                return cached
        manifest = self.manifest
        shard = manifest.shards[index]
        # Opened outside the lock (file I/O); a concurrent duplicate open of
        # the same shard is benign — last one in wins the cache slot.
        X = _open_shard_array(
            self._store.directory,
            shard.x_file,
            (shard.n_rows, manifest.n_features),
            np.dtype(manifest.x_dtype),
        )
        y = (
            None
            if shard.y_file is None
            else _open_shard_array(
                self._store.directory,
                shard.y_file,
                (shard.n_rows,),
                np.dtype(manifest.y_dtype),
            )
        )
        with self._memmap_lock:
            self._memmaps[index] = (X, y)
            self._memmaps.move_to_end(index)
            while len(self._memmaps) > self.MAX_CACHED_SHARDS:
                self._memmaps.popitem(last=False)
        return X, y

    def read_block(self, start: int, stop: int) -> Dataset:
        """The rows ``[start, stop)`` as a :class:`Dataset`.

        Zero-copy (memory-mapped views) when the range lies inside one
        shard — which every bound from :meth:`block_bounds` does; a range
        crossing shards is gathered with one copy.
        """
        if not 0 <= start < stop <= self.n_rows:
            raise DataError(
                f"block [{start}, {stop}) out of range for {self.n_rows} rows"
            )
        shard = self.manifest.shard_for_row(start)
        if stop <= shard.stop:
            X, y = self._shard_arrays(shard.index)
            lo, hi = start - shard.start, stop - shard.start
            y_slice = None if y is None else y[lo:hi]
            return Dataset(X[lo:hi], y_slice, name=self._name, metadata=self.metadata)
        return self.take(np.arange(start, stop))

    def iter_blocks(self, block_rows: int) -> Iterator[Dataset]:
        """Yield the store as shard-snapped zero-copy blocks in row order."""
        for start, stop in self.block_bounds(block_rows):
            yield self.read_block(start, stop)

    # ------------------------------------------------------------------
    # Row gathering (the samplers' entry point)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> Dataset:
        """Gather the addressed rows (kept in order) into an in-memory Dataset.

        Matches :meth:`Dataset.take` bitwise.  Shards are visited one at a
        time, so peak extra memory is the output plus one shard's selected
        rows — never the whole store.
        """
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size == 0:
            raise DataError("cannot take an empty subset of a dataset")
        if indices.min() < 0 or indices.max() >= self.n_rows:
            raise DataError("subset indices out of range")
        manifest = self.manifest
        X_out = np.empty((indices.size, manifest.n_features), dtype=np.dtype(manifest.x_dtype))
        y_out = (
            None
            if manifest.y_dtype is None
            else np.empty(indices.size, dtype=np.dtype(manifest.y_dtype))
        )
        # Group the requested rows by shard via one sort + searchsorted —
        # O(n log n) and touching only the shards that actually hold rows
        # (a per-shard mask scan would cost O(n_shards · n_indices), which
        # bites at tens of thousands of shards).  Within each shard the
        # gather is ascending, which is also the memmap-friendly order.
        order = np.argsort(indices, kind="stable")
        sorted_indices = indices[order]
        starts = np.fromiter(
            (shard.start for shard in manifest.shards),
            dtype=np.int64,
            count=manifest.n_shards,
        )
        shard_of = np.searchsorted(starts, sorted_indices, side="right") - 1
        group_bounds = np.flatnonzero(np.diff(shard_of)) + 1
        for group in np.split(np.arange(indices.size), group_bounds):
            shard = manifest.shards[int(shard_of[group[0]])]
            positions = order[group]
            local = sorted_indices[group] - shard.start
            X, y = self._shard_arrays(shard.index)
            X_out[positions] = X[local]
            if y_out is not None:
                y_out[positions] = y[local]
        return Dataset(X_out, y_out, name=self._name, metadata=self.metadata)

    def materialize(self) -> Dataset:
        """The whole store as one in-memory :class:`Dataset`.

        Correctness escape hatch (used by the generic accumulator fallback
        for custom model specs without a streaming decomposition); it
        deliberately defeats the out-of-core memory bound, so hot paths
        should stream blocks instead.
        """
        manifest = self.manifest
        X = np.concatenate(
            [self._shard_arrays(shard.index)[0] for shard in manifest.shards], axis=0
        )
        y = (
            None
            if manifest.y_dtype is None
            else np.concatenate(
                [self._shard_arrays(shard.index)[1] for shard in manifest.shards]
            )
        )
        return Dataset(X, y, name=self._name, metadata=self.metadata)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedDataset({self._store.directory!r}, rows={self.n_rows}, "
            f"features={self.n_features}, shards={self.manifest.n_shards})"
        )


def write_blocks(
    blocks: Iterable[tuple[np.ndarray, np.ndarray | None]],
    directory: str | os.PathLike,
    *,
    shard_rows: int = STORE_SHARD_ROWS,
    name: str = "dataset",
    metadata: dict | None = None,
    overwrite: bool = False,
) -> ShardStore:
    """Write an iterable of ``(X_block, y_block)`` pairs as a shard store.

    Convenience wrapper over :class:`ShardStoreWriter` for block streams
    (``y_block`` is ``None`` throughout for unsupervised data); never holds
    more than one shard plus one block in memory.
    """
    writer = ShardStoreWriter(
        directory, shard_rows=shard_rows, name=name, metadata=metadata, overwrite=overwrite
    )
    for X_block, y_block in blocks:
        writer.append(X_block, y_block)
    return writer.close()
