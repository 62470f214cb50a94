"""Order statistics and the answers digest shared by the harness.

Pure Python on purpose: the parent process and ``compare`` never import
NumPy, so they start fast and stay out of the measured processes' way.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import struct
from collections.abc import Sequence

#: percentiles the tail rule may report, lowest first.
TAIL_LADDER = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def min_samples_for(q: float) -> int:
    """Fewest samples that leave ``TAIL_BEYOND`` of them beyond percentile ``q``."""
    return math.ceil(TAIL_BEYOND / (1.0 - q / 100.0) - 1e-9)


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """``(q, value)`` for the highest ladder percentile with ten samples beyond it.

    ``None`` when even the median lacks ten samples beyond it (fewer than
    20 samples).
    """
    best = None
    for q in TAIL_LADDER:
        if len(values) >= min_samples_for(q):
            best = q
    return None if best is None else (best, percentile(values, best))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> dict[str, float | int | None]:
    """Median, tail percentile and sample count of one latency class."""
    tail = tail_percentile(values)
    return {
        "count": len(values),
        "p50": percentile(values, 50.0) if values else None,
        "tail_q": None if tail is None else tail[0],
        "tail": None if tail is None else tail[1],
    }


class AnswersDigest:
    """blake2b over every returned (sample size, θ bytes, ε), in order.

    Two commits that return bitwise-identical answers to the same inputs
    produce the same hex digest.
    """

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self.count = 0

    def add(self, sample_size: int, theta: bytes, epsilon: float) -> None:
        self._hash.update(struct.pack("<q", int(sample_size)))
        self._hash.update(struct.pack("<q", len(theta)))
        self._hash.update(theta)
        self._hash.update(struct.pack("<d", float(epsilon)))
        self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
