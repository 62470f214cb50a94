"""Shard-store manifest: the JSON metadata that makes a directory a dataset.

A shard store (:mod:`repro.data.store.shard_store`) persists one dataset as
a directory of ``.npy`` row shards plus one ``manifest.json``.  The manifest
is the single source of truth for

* the **schema** — row/feature counts and the exact dtypes of the feature
  matrix and the label vector (labels keep whatever dtype they were written
  with; features are always float64, matching
  :class:`repro.data.dataset.Dataset`'s coercion);
* the **layout** — the ordered list of shards with their half-open row
  ranges ``[start, stop)`` and file names, which is what lets readers map a
  global row index to a shard without touching the data;
* the **integrity story** — a per-shard content digest (the digest the
  shard's rows would have as a standalone ``Dataset``) plus a manifest-level
  ``content_digest`` that equals :meth:`repro.data.dataset.Dataset.content_digest`
  of the fully materialised dataset.  The latter is what lets the serving
  registry fingerprint a sharded holdout *without materialising it*: a
  sharded and an in-memory copy of the same data produce the same digest;
* the **label moments** — per-store count/mean/M2 (Chan's parallel-variance
  form) so normalised regression metrics can recover the holdout label
  scale in O(1) instead of re-reading every label shard.

Loading is strict: a missing file, truncated JSON, unknown version, or a
shard list that does not tile ``[0, n_rows)`` raises
:class:`~repro.exceptions.DataError` immediately — a partially written or
hand-edited store must never be silently served.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.exceptions import DataError

#: File name of the manifest inside a store directory.
MANIFEST_FILENAME = "manifest.json"

#: On-disk format version; bump on incompatible layout changes.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ShardInfo:
    """One shard: a half-open row range and the files that hold it.

    ``digest`` is the content digest the shard's rows would have as a
    standalone :class:`~repro.data.dataset.Dataset` — recomputable from the
    shard files alone, which is what makes per-shard tamper detection
    possible without reading the whole store.
    """

    index: int
    start: int
    stop: int
    x_file: str
    y_file: str | None
    digest: str

    @property
    def n_rows(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class LabelMoments:
    """Streaming label statistics in Chan's combinable (count, mean, M2) form.

    ``std`` equals ``sqrt(M2 / count)`` — the population standard deviation
    ``numpy.std`` computes — to within a few ulps, because the per-shard
    moments are combined with the numerically stable pairwise update rather
    than the cancellation-prone ``E[y²] − E[y]²`` form.
    """

    count: int
    mean: float
    m2: float

    @classmethod
    def from_block(cls, y: np.ndarray) -> "LabelMoments":
        """The moments of one label block.

        THE single per-block computation: the shard-store writer folds
        these in at flush time and ``ShardStore.verify()`` re-derives them
        for comparison, so both sides stay bitwise-identical by
        construction.
        """
        block = np.asarray(y, dtype=np.float64)
        mean = float(block.mean())
        return cls(
            count=int(block.shape[0]),
            mean=mean,
            m2=float(np.sum((block - mean) ** 2)),
        )

    def combined(self, count: int, mean: float, m2: float) -> "LabelMoments":
        """Fold another block's (count, mean, M2) into this one (Chan et al.)."""
        if count == 0:
            return self
        if self.count == 0:
            return LabelMoments(count=count, mean=mean, m2=m2)
        total = self.count + count
        delta = mean - self.mean
        return LabelMoments(
            count=total,
            mean=self.mean + delta * (count / total),
            m2=self.m2 + m2 + delta * delta * (self.count * count / total),
        )

    def merge(self, other: "LabelMoments") -> "LabelMoments":
        """Fold another :class:`LabelMoments` into this one."""
        return self.combined(other.count, other.mean, other.m2)

    def matches(self, other: "LabelMoments") -> bool:
        """Exact equality, except NaN moments match NaN (IEEE ``nan != nan``
        would otherwise flag a pristine store with NaN labels as tampered)."""

        def same(a: float, b: float) -> bool:
            return a == b or (math.isnan(a) and math.isnan(b))

        return (
            self.count == other.count
            and same(self.mean, other.mean)
            and same(self.m2, other.m2)
        )

    @property
    def std(self) -> float:
        if self.count == 0:
            return 0.0
        return math.sqrt(max(self.m2 / self.count, 0.0))


@dataclass(frozen=True)
class StatisticsSidecarInfo:
    """One statistics sidecar file: per-shard moment summaries for one key.

    A sidecar holds every covered shard's H/J moment summary for one
    ``(model-spec digest, θ-digest, method, block_rows)`` key — what lets a
    session bootstrap merge persisted summaries instead of re-reading raw
    rows.

    ``digest`` is the blake2b hex digest of the sidecar file's bytes (the
    tamper check :meth:`ShardStore.verify` replays); ``shard_digests``
    records, in shard order, which shard contents each stored summary was
    computed from, so a reader can tell exactly which shards of the current
    manifest are covered (after an append the sidecar covers the old
    prefix until the statistics are refreshed).
    """

    file: str
    spec_digest: str
    theta_digest: str
    method: str
    block_rows: int
    digest: str
    shard_digests: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.file or not self.digest:
            raise DataError("statistics sidecar entry needs a file and a digest")
        if self.block_rows < 1:
            raise DataError("statistics sidecar block_rows must be at least 1")
        if not self.shard_digests:
            raise DataError("statistics sidecar entry covers no shards")
        object.__setattr__(self, "shard_digests", tuple(self.shard_digests))


@dataclass(frozen=True)
class ShardManifest:
    """Schema, layout and integrity metadata of one shard store."""

    name: str
    n_rows: int
    n_features: int
    x_dtype: str
    y_dtype: str | None
    shards: tuple[ShardInfo, ...]
    content_digest: str
    label_moments: LabelMoments | None = None
    version: int = MANIFEST_VERSION
    metadata: dict = field(default_factory=dict)
    statistics: tuple[StatisticsSidecarInfo, ...] = ()

    def __post_init__(self) -> None:
        if self.version != MANIFEST_VERSION:
            raise DataError(
                f"unsupported shard-store manifest version {self.version} "
                f"(this library reads version {MANIFEST_VERSION})"
            )
        if self.n_rows < 1 or self.n_features < 1:
            raise DataError("shard store must hold at least one row and one feature")
        if not self.shards:
            raise DataError("shard store manifest lists no shards")
        expected_start = 0
        for position, shard in enumerate(self.shards):
            if shard.index != position:
                raise DataError(
                    f"shard list out of order: position {position} holds index "
                    f"{shard.index}"
                )
            if shard.start != expected_start or shard.stop <= shard.start:
                raise DataError(
                    f"shard {position} covers [{shard.start}, {shard.stop}) but "
                    f"rows must tile the store contiguously from {expected_start}"
                )
            if (shard.y_file is None) != (self.y_dtype is None):
                raise DataError(
                    f"shard {position} label file is inconsistent with the "
                    "manifest's label dtype"
                )
            expected_start = shard.stop
        if expected_start != self.n_rows:
            raise DataError(
                f"shards cover {expected_start} rows but the manifest declares "
                f"{self.n_rows}"
            )
        if (self.label_moments is None) != (self.y_dtype is None):
            raise DataError(
                "manifest label moments must be present exactly when the store "
                "is supervised (y_dtype set) — a supervised manifest without "
                "them cannot serve normalised regression metrics"
            )
        if self.label_moments is not None and self.label_moments.count != self.n_rows:
            raise DataError(
                f"label moments cover {self.label_moments.count} rows but the "
                f"manifest declares {self.n_rows}"
            )
        object.__setattr__(self, "statistics", tuple(self.statistics))

    @property
    def is_supervised(self) -> bool:
        return self.y_dtype is not None

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def extends(self, older: "ShardManifest") -> bool:
        """Whether ``older``'s shards survive unchanged as a prefix of this one's.

        The append case, an unchanged layout included: every shard of
        ``older`` is still here with the same file and content digest.
        """
        return len(self.shards) >= len(older.shards) and all(
            old.digest == new.digest and old.x_file == new.x_file
            for old, new in zip(older.shards, self.shards)
        )

    def shard_for_row(self, row: int) -> ShardInfo:
        """The shard holding global row index ``row`` (binary search)."""
        if not 0 <= row < self.n_rows:
            raise DataError(f"row {row} out of range for {self.n_rows}-row store")
        lo, hi = 0, len(self.shards) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.shards[mid].stop <= row:
                lo = mid + 1
            else:
                hi = mid
        return self.shards[lo]

    def label_std(self) -> float:
        """Population standard deviation of the labels (from the moments)."""
        if self.label_moments is None:
            raise DataError("shard store records no label moments (unsupervised)")
        return self.label_moments.std

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = asdict(self)
        payload["shards"] = [asdict(shard) for shard in self.shards]
        payload["statistics"] = [asdict(entry) for entry in self.statistics]
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ShardManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"corrupt shard-store manifest: {exc}") from exc
        if not isinstance(payload, dict):
            raise DataError("corrupt shard-store manifest: not a JSON object")
        try:
            shards = tuple(
                ShardInfo(
                    index=int(shard["index"]),
                    start=int(shard["start"]),
                    stop=int(shard["stop"]),
                    x_file=str(shard["x_file"]),
                    y_file=None if shard["y_file"] is None else str(shard["y_file"]),
                    digest=str(shard["digest"]),
                )
                for shard in payload["shards"]
            )
            moments = payload.get("label_moments")
            label_moments = (
                None
                if moments is None
                else LabelMoments(
                    count=int(moments["count"]),
                    mean=float(moments["mean"]),
                    m2=float(moments["m2"]),
                )
            )
            # Older manifests (pre statistics tier) simply omit the key.
            statistics = tuple(
                StatisticsSidecarInfo(
                    file=str(entry["file"]),
                    spec_digest=str(entry["spec_digest"]),
                    theta_digest=str(entry["theta_digest"]),
                    method=str(entry["method"]),
                    block_rows=int(entry["block_rows"]),
                    digest=str(entry["digest"]),
                    shard_digests=tuple(
                        str(digest) for digest in entry["shard_digests"]
                    ),
                )
                for entry in payload.get("statistics", [])
            )
            return cls(
                name=str(payload["name"]),
                n_rows=int(payload["n_rows"]),
                n_features=int(payload["n_features"]),
                x_dtype=str(payload["x_dtype"]),
                y_dtype=None if payload["y_dtype"] is None else str(payload["y_dtype"]),
                shards=shards,
                content_digest=str(payload["content_digest"]),
                label_moments=label_moments,
                version=int(payload["version"]),
                metadata=dict(payload.get("metadata", {})),
                statistics=statistics,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"corrupt shard-store manifest: missing or malformed field ({exc})"
            ) from exc

    def save(self, directory: str | os.PathLike) -> str:
        """Write ``manifest.json`` atomically (write-then-rename) into ``directory``."""
        path = os.path.join(os.fspath(directory), MANIFEST_FILENAME)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
        os.replace(tmp_path, path)
        return path

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "ShardManifest":
        """Load and validate the manifest of a store directory."""
        path = os.path.join(os.fspath(directory), MANIFEST_FILENAME)
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError as exc:
            raise DataError(
                f"{os.fspath(directory)!r} is not a shard store: no {MANIFEST_FILENAME}"
            ) from exc
        except OSError as exc:
            raise DataError(f"cannot read shard-store manifest: {exc}") from exc
        return cls.from_json(text)
