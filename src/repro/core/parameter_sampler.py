"""Fast sampling of model parameters from their asymptotic distribution.

Corollary 1 gives ``θ̂_N | θ_n ~ N(θ_n, α H⁻¹JH⁻¹)`` with
``α = 1/n − 1/N``.  The accuracy and sample-size estimators need many i.i.d.
draws from such distributions for *many different values of α* (the binary
search over n), so Section 4.3 describes two optimisations, both implemented
here:

* **Sampling by scaling** — draw base samples from the *unscaled*
  distribution ``N(0, H⁻¹JH⁻¹)`` once, then multiply by ``sqrt(α)`` whenever
  a specific α is needed.
* **Avoiding the dense covariance** — the base samples are produced as
  ``L z`` with ``z ~ N(0, I)`` and ``L Lᵀ = H⁻¹JH⁻¹`` taken from the
  factored statistics, so the d-by-d covariance never exists in memory.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.statistics import ModelStatistics
from repro.exceptions import StatisticsError
from repro.linalg.utils import freeze


class ParameterSampler:
    """Draws parameter vectors from ``N(center, α · H⁻¹JH⁻¹)``.

    Parameters
    ----------
    statistics:
        The factored statistics computed at the initial model.
    rng:
        Seeded NumPy generator.

    The largest block of base draws from the unscaled distribution is
    cached *per tag*, implementing sampling-by-scaling: the binary search
    over n re-uses the same base draws and only rescales them, exactly as
    Section 4.3 prescribes.  Smaller requests return prefix slices of the
    cached block and larger requests extend it in place, so every request
    against a tag shares a common prefix of draws — even when callers ask
    for different counts.  Two contracts rest on that sharing: warm-cache
    keys digest the cached blocks, and a lockstep search over several
    contracts equals the serial searches bitwise because every candidate
    reads the same draws.
    """

    def __init__(
        self,
        statistics: ModelStatistics,
        rng: np.random.Generator | None = None,
    ):
        self._statistics = statistics
        self._rng = rng or np.random.default_rng()
        # Cached blocks are stored read-only (callers receive views of
        # them); the lock serialises cache growth and RNG consumption so
        # concurrent callers cannot tear the grow-in-place update or
        # interleave draws from the shared generator.
        self._base_cache: dict[str, np.ndarray] = {}  # guarded-by: _lock  # repro-lint: frozen-attr
        self._lock = threading.RLock()

    @property
    def statistics(self) -> ModelStatistics:
        return self._statistics

    @staticmethod
    def alpha(n: int, N: int) -> float:
        """The variance scale ``α = 1/n − 1/N`` from Theorem 1."""
        if n <= 0 or N <= 0:
            raise StatisticsError("sample sizes must be positive")
        if n > N:
            raise StatisticsError(f"sample size n={n} cannot exceed N={N}")
        return 1.0 / n - 1.0 / N

    # ------------------------------------------------------------------
    # Base (unscaled) draws
    # ------------------------------------------------------------------
    def base_samples(self, count: int, tag: str = "default") -> np.ndarray:
        """Draws from the unscaled ``N(0, H⁻¹JH⁻¹)``, shape ``(count, d)``.

        ``tag`` keys the cache so callers needing two *independent* streams
        (the two-stage sampling of Section 4.1) do not accidentally share
        draws.  Within a tag the cache holds the largest block drawn so far:
        a smaller request returns a prefix slice of that block and a larger
        request extends it with fresh rows, so two callers sharing a tag but
        requesting different counts still share a common prefix of draws —
        the Section 4.3 sampling-by-scaling reuse.

        The returned array is **read-only**: the cached block is shared by
        every caller (and by every rescaled draw derived from it), so an
        in-place mutation would silently corrupt all later samples for the
        tag.  Copy it if you need a writable version.  Thread-safe: cache
        growth is serialised, so concurrent callers see consistent prefixes.
        """
        if count <= 0:
            raise StatisticsError("sample count must be positive")
        covariance = self._statistics.covariance
        with self._lock:
            cached = self._base_cache.get(tag)
            have = 0 if cached is None else cached.shape[0]
            if have < count:
                z = self._rng.standard_normal(size=(count - have, covariance.rank))
                fresh = covariance.apply(z)
                cached = freeze(
                    fresh if cached is None else np.concatenate([cached, fresh], axis=0)
                )
                self._base_cache[tag] = cached
            if cached.shape[0] == count:
                # Return the block itself (not a view of it) so repeated
                # same-count requests keep array identity, which callers use
                # as the "draws were reused" signal.
                return cached
            return cached[:count]

    # ------------------------------------------------------------------
    # Scaled draws
    # ------------------------------------------------------------------
    def sample_around(
        self,
        center: np.ndarray,
        n: int,
        N: int,
        count: int,
        tag: str = "default",
    ) -> np.ndarray:
        """Draws from ``N(center, (1/n − 1/N) H⁻¹JH⁻¹)``.

        Used by the Model Accuracy Estimator with ``center = θ_n`` to sample
        plausible full-model parameters θ_N (Corollary 1).
        """
        center = np.asarray(center, dtype=np.float64)
        if center.shape[0] != self._statistics.dimension:
            raise StatisticsError(
                f"center has dimension {center.shape[0]}, statistics expect "
                f"{self._statistics.dimension}"
            )
        alpha = self.alpha(n, N)
        base = self.base_samples(count, tag=tag)
        return center[None, :] + np.sqrt(alpha) * base

    def two_stage_samples(
        self,
        theta0: np.ndarray,
        n0: int,
        n: int,
        N: int,
        count: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The Section 4.1 joint draws ``(θ_n,i, θ_N,i)`` given the initial θ_0.

        Stage one samples ``θ_n,i ~ N(θ_0, α₁ Cov)`` with ``α₁ = 1/n₀ − 1/n``;
        stage two samples ``θ_N,i ~ N(θ_n,i, α₂ Cov)`` with
        ``α₂ = 1/n − 1/N``.  The two stages use independent base draws.
        """
        theta0 = np.asarray(theta0, dtype=np.float64)
        if n < n0:
            raise StatisticsError(f"candidate sample size n={n} is below n0={n0}")
        alpha1 = self.alpha(n0, n) if n > n0 else 0.0
        alpha2 = self.alpha(n, N)
        stage_one = self.base_samples(count, tag="stage-one")
        stage_two = self.base_samples(count, tag="stage-two")
        theta_n = theta0[None, :] + np.sqrt(alpha1) * stage_one
        theta_N = theta_n + np.sqrt(alpha2) * stage_two
        return theta_n, theta_N
