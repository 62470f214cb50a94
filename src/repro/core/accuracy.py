"""Model Accuracy Estimator (Section 3).

Given an approximate model ``m_n`` (parameter θ_n trained on a sample of
size n) and the confidence level δ, the estimator computes an ε such that
the prediction difference ``v(m_n)`` between m_n and the *untrained* full
model m_N is at most ε with probability at least 1 − δ.

The procedure follows Section 3.3:

1. draw k i.i.d. full-model parameters ``θ_N,i ~ N(θ_n, α H⁻¹JH⁻¹)`` with
   ``α = 1/n − 1/N`` (Corollary 1), using the fast sampler;
2. evaluate the model difference ``v(m_n; θ_N,i)`` on the holdout set via
   the streaming sharded diff engine (the MCS ``diff`` function, evaluated
   block by block so memory stays O(k · block) on arbitrarily large
   holdouts);
3. return the conservative empirical quantile of those differences
   (Lemma 2).

The sampled differences are returned *ascending*: the conservative bound is
a pure quantile lookup on the sorted vector, which is what lets the
estimation session (:mod:`repro.core.session`) cache one vector per
(θ, n, N) and answer any number of (ε, δ) contracts against it with zero
further model evaluations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.config import NUM_PARAMETER_SAMPLES, validate_delta
from repro.core.guarantees import conservative_upper_bound
from repro.core.parameter_sampler import ParameterSampler
from repro.core.statistics import ModelStatistics
from repro.data.dataset import Dataset
from repro.evaluation.streaming import StreamingConfig, streaming_prediction_differences
from repro.exceptions import ContractError
from repro.linalg.utils import freeze
from repro.models.base import ModelClassSpec


@dataclass(frozen=True)
class AccuracyEstimate:
    """Result of one accuracy estimation.

    Attributes
    ----------
    epsilon:
        The conservative bound on ``v(m_n)`` holding with probability 1 − δ.
    delta:
        The confidence parameter the bound was computed for.
    sampled_differences:
        The k sampled model differences in *ascending* order (useful for
        diagnostics and tests).  The array is **read-only**: the estimation
        session shares one cached vector across every estimate for the same
        (θ, n, N), so mutating it would corrupt the bounds of every past and
        future contract answered from that cache entry.  Copy it
        (``estimate.sampled_differences.copy()``) if you need a writable
        version.
    estimation_seconds:
        Wall-clock cost of the estimate.
    """

    epsilon: float
    delta: float
    sampled_differences: np.ndarray
    estimation_seconds: float = 0.0

    def __post_init__(self) -> None:
        # Hand out a read-only view regardless of what was passed in; see
        # the attribute docstring for the aliasing contract.
        differences = freeze(np.asarray(self.sampled_differences, dtype=np.float64).view())
        object.__setattr__(self, "sampled_differences", differences)

    @property
    def estimated_accuracy(self) -> float:
        """The accuracy ``1 − ε`` implied by the bound."""
        return 1.0 - self.epsilon


class ModelAccuracyEstimator:
    """Estimates the accuracy of an approximate model without training m_N.

    Parameters
    ----------
    spec / holdout / n_parameter_samples:
        As in Section 3.3: the model class, the holdout set the ``diff``
        metric is evaluated on, and the number k of Monte-Carlo parameter
        samples.
    streaming:
        Sharding configuration for the holdout evaluation; ``None`` uses the
        module default (:data:`repro.config.HOLDOUT_BLOCK_ROWS` rows
        per block, serial).
    """

    def __init__(
        self,
        spec: ModelClassSpec,
        holdout: Dataset,
        n_parameter_samples: int = NUM_PARAMETER_SAMPLES,
        streaming: StreamingConfig | None = None,
    ):
        if n_parameter_samples < 2:
            raise ContractError("need at least two parameter samples")
        self._spec = spec
        self._holdout = holdout
        self._n_parameter_samples = n_parameter_samples
        self._streaming = streaming

    def sorted_differences(  # repro-lint: returns-frozen
        self,
        theta_n: np.ndarray,
        n: int,
        N: int,
        sampler: ParameterSampler,
        tag: str = "accuracy",
    ) -> np.ndarray:
        """The k sampled model differences, ascending and read-only.

        This is steps 1–2 of Section 3.3 without the quantile: the vector is
        contract-independent, which is what the session cache exploits —
        every (ε, δ) against the same (θ, n, N) is a lookup into this array.
        """
        theta_n = np.asarray(theta_n, dtype=np.float64)
        if n >= N:
            # The "approximate" model is the full model: zero difference.
            differences = np.zeros(self._n_parameter_samples)
        else:
            theta_N_samples = sampler.sample_around(
                theta_n, n=n, N=N, count=self._n_parameter_samples, tag=tag
            )
            differences = np.sort(
                np.asarray(
                    streaming_prediction_differences(
                        self._spec, theta_n, theta_N_samples, self._holdout,
                        config=self._streaming,
                    ),
                    dtype=np.float64,
                )
            )
        return freeze(differences)

    def estimate(
        self,
        theta_n: np.ndarray,
        n: int,
        N: int,
        delta: float,
        statistics: ModelStatistics,
        sampler: ParameterSampler | None = None,
    ) -> AccuracyEstimate:
        """Estimate the error bound ε of the model with parameter ``theta_n``.

        Parameters
        ----------
        theta_n:
            Parameter vector of the approximate model.
        n:
            Sample size the model was trained on.
        N:
            Full training-set size.
        delta:
            Contract violation probability.
        statistics:
            Factored H/J statistics (normally computed at θ_n).
        sampler:
            Optional pre-built sampler to share base draws with the sample
            size estimator; a fresh one is created when omitted.
        """
        validate_delta(delta)
        start = time.perf_counter()
        sampler = sampler or ParameterSampler(statistics)
        differences = self.sorted_differences(theta_n, n, N, sampler)
        if n >= N:
            epsilon = 0.0
        else:
            epsilon = conservative_upper_bound(differences, delta, assume_sorted=True)
        elapsed = time.perf_counter() - start
        return AccuracyEstimate(
            epsilon=float(epsilon),
            delta=delta,
            sampled_differences=differences,
            estimation_seconds=elapsed,
        )
