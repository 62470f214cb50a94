"""Per-shard statistics sidecars: persisted H/J moment summaries.

The streaming statistics tier (:mod:`repro.core.statistics`) reduces every
shard of a store to a compact moment summary (:mod:`repro.linalg.moments`)
and merges the summaries in shard order.  This module persists those
per-shard summaries next to the shard data so later bootstraps — a new
session over the same store, or a :meth:`EstimationSession.refresh` after
an append — merge a few kilobytes of sidecar instead of re-reading every
raw row.

Layout.  One ``.npz`` file per statistics key, named

    ``stats-<spec_digest[:8]>-<theta_digest[:8]>-<method>.npz``

(the ``stats-`` prefix keeps the namespace disjoint from the ``shard-*``
data files), holding for each covered shard position ``i`` the summary's
arrays under ``s{i}_``-prefixed keys plus a ``shard_digests`` array that
records which shard contents each summary came from.  The manifest lists
every sidecar as a :class:`~repro.data.store.manifest.StatisticsSidecarInfo`
with the blake2b digest of the file bytes, so ``ShardStore.verify()`` can
detect sidecar tampering exactly like shard tampering.

Integrity / staleness rules:

* ``load`` re-hashes the file and compares against the manifest entry — a
  mismatch raises :class:`~repro.exceptions.DataError`, never a silent
  wrong answer;
* summaries are keyed by shard *content* digest, so a summary is only ever
  applied to the exact bytes it was computed from (after an append the old
  sidecar covers the old shards; the new shards are computed fresh);
* a sidecar serves only readers folding on its ``block_rows`` grid — any
  other block size is a miss, and that reader's publish replaces it;
* ``publish`` garbage-collects sidecars that share the (spec, method) key
  but were taken at a **different θ** — those became stale the moment the
  model's bootstrap parameter moved (a grown store re-trains a new θ₀) and
  must not linger as dead weight or, worse, be served by key collision.

Publishing rewrites the sidecar and republishes the manifest atomically
(write-then-rename, same discipline as the shard writer), so a crash
mid-publish leaves the previous manifest intact and at worst strands an
unreferenced ``stats-*.npz`` file that the next overwrite cleans up.
"""

from __future__ import annotations

import hashlib
import io
import os
from typing import TYPE_CHECKING

import numpy as np

from repro.data.store.manifest import ShardManifest, StatisticsSidecarInfo
from repro.exceptions import DataError
from repro.linalg.moments import SUMMARY_KINDS, MomentSummary, summary_kind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.store.shard_store import ShardStore


def _file_digest(path: str) -> str:
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sidecar_filename(spec_digest: str, theta_digest: str, method: str) -> str:
    """Deterministic sidecar file name for one statistics key."""
    return f"stats-{spec_digest[:8]}-{theta_digest[:8]}-{method}.npz"


class StatisticsIndex:
    """Read/write access to one store's statistics sidecars.

    Obtained via :meth:`ShardStore.statistics_index` /
    :meth:`ShardedDataset.statistics_index`; operates on the store's live
    manifest so a publish is immediately visible to the owning store object
    (and, via the rewritten ``manifest.json``, to every other process).
    """

    def __init__(self, store: "ShardStore"):
        self._store = store

    @property
    def directory(self) -> str:
        return self._store.directory

    @property
    def manifest(self) -> ShardManifest:
        return self._store.manifest

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def find(
        self, spec_digest: str, theta_digest: str, method: str, block_rows: int
    ) -> StatisticsSidecarInfo | None:
        """The manifest entry for one statistics key, or ``None``.

        ``block_rows`` is part of the key: summaries folded on another
        block grid differ in their last bits, so a mismatch is a miss (and
        the next publish replaces the entry).
        """
        for entry in self.manifest.statistics:
            if (
                entry.spec_digest == spec_digest
                and entry.theta_digest == theta_digest
                and entry.method == method
                and entry.block_rows == block_rows
            ):
                return entry
        return None

    def load(
        self, spec_digest: str, theta_digest: str, method: str, block_rows: int
    ) -> dict[str, MomentSummary]:
        """Per-shard summaries for one key, as ``{shard digest: summary}``.

        Returns an empty mapping when no sidecar covers the key.  A listed
        sidecar whose file is missing, whose bytes do not hash to the
        manifest digest, or whose payload is malformed raises
        :class:`DataError` — tampered statistics must never be merged.
        """
        entry = self.find(spec_digest, theta_digest, method, block_rows)
        if entry is None:
            return {}
        path = os.path.join(self.directory, entry.file)
        if not os.path.exists(path):
            raise DataError(
                f"statistics sidecar {entry.file!r} is listed in the manifest "
                "but missing on disk"
            )
        if _file_digest(path) != entry.digest:
            raise DataError(
                f"statistics sidecar {entry.file!r} does not match its manifest "
                "digest (file corrupted or tampered with)"
            )
        try:
            with np.load(path) as payload:
                kind = str(payload["kind"][()])
                summary_cls = SUMMARY_KINDS.get(kind)
                if summary_cls is None:
                    raise DataError(
                        f"statistics sidecar {entry.file!r} holds unknown "
                        f"summary kind {kind!r}"
                    )
                shard_digests = [str(d) for d in payload["shard_digests"]]
                summaries: dict[str, MomentSummary] = {}
                for position, digest in enumerate(shard_digests):
                    prefix = f"s{position}_"
                    arrays = {
                        name[len(prefix):]: payload[name]
                        for name in payload.files
                        if name.startswith(prefix)
                    }
                    summaries[digest] = summary_cls.from_arrays(arrays)
        except DataError:
            raise
        except Exception as exc:  # truncated zip, missing keys, bad shapes
            raise DataError(
                f"statistics sidecar {entry.file!r} is malformed: {exc}"
            ) from exc
        if shard_digests != list(entry.shard_digests):
            raise DataError(
                f"statistics sidecar {entry.file!r} covers different shards "
                "than its manifest entry claims"
            )
        return summaries

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def publish(
        self,
        spec_digest: str,
        theta_digest: str,
        method: str,
        block_rows: int,
        shard_digests: list[str],
        summaries: list[MomentSummary],
    ) -> StatisticsSidecarInfo:
        """Write one key's complete per-shard summary set and republish.

        ``summaries[i]`` must be the canonical summary of the shard whose
        content digest is ``shard_digests[i]``, in shard order.  Stale
        sidecars for the same (spec, method) at a different θ are
        garbage-collected as part of the same manifest republish.  The
        entry is applied to the manifest on disk, not to this handle's
        in-memory copy, so shards another handle appended since this one
        was opened survive the republish; the handle then adopts the
        republished manifest.
        """
        if len(shard_digests) != len(summaries) or not summaries:
            raise DataError(
                "publish needs one summary per covered shard (and at least one)"
            )
        kinds = {summary_kind(summary) for summary in summaries}
        if len(kinds) != 1:
            raise DataError(f"cannot mix summary kinds in one sidecar: {kinds}")

        arrays: dict[str, np.ndarray] = {
            "kind": np.array(next(iter(kinds))),
            "shard_digests": np.array(shard_digests),
        }
        for position, summary in enumerate(summaries):
            for name, value in summary.to_arrays().items():
                arrays[f"s{position}_{name}"] = value

        file_name = sidecar_filename(spec_digest, theta_digest, method)
        path = os.path.join(self.directory, file_name)
        # Serialise to memory first so the on-disk file appears atomically.
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(buffer.getvalue())
        os.replace(tmp_path, path)

        entry = StatisticsSidecarInfo(
            file=file_name,
            spec_digest=spec_digest,
            theta_digest=theta_digest,
            method=method,
            block_rows=int(block_rows),
            digest=_file_digest(path),
            shard_digests=tuple(shard_digests),
        )

        manifest = ShardManifest.load(self.directory)
        kept: list[StatisticsSidecarInfo] = []
        stale: list[StatisticsSidecarInfo] = []
        for existing in manifest.statistics:
            if existing.file == file_name:
                continue  # replaced below
            if (
                existing.spec_digest == spec_digest
                and existing.method == method
                and existing.theta_digest != theta_digest
            ):
                stale.append(existing)  # θ moved: summaries are dead weight
            else:
                kept.append(existing)
        updated = ShardManifest(
            name=manifest.name,
            n_rows=manifest.n_rows,
            n_features=manifest.n_features,
            x_dtype=manifest.x_dtype,
            y_dtype=manifest.y_dtype,
            shards=manifest.shards,
            content_digest=manifest.content_digest,
            label_moments=manifest.label_moments,
            version=manifest.version,
            metadata=dict(manifest.metadata),
            statistics=(*kept, entry),
        )
        updated.save(self.directory)
        self._store._manifest = updated
        for dead in stale:
            try:
                os.remove(os.path.join(self.directory, dead.file))
            except OSError:
                pass  # unreferenced leftovers are harmless; best-effort GC
        return entry
