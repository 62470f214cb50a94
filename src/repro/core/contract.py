"""The approximation contract: the (ε, δ) request a user hands to BlinkML.

Section 2.1: "BlinkML needs one extra input: an approximation contract that
consists of an error bound ε and a confidence level δ.  Then, BlinkML
returns an approximate model m_n such that the prediction difference between
m_n and m_N is within ε with probability at least 1 − δ."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DELTA
from repro.exceptions import ContractError


@dataclass(frozen=True)
class ApproximationContract:
    """Error bound ε and violation probability δ.

    Attributes
    ----------
    epsilon:
        Maximum tolerated prediction difference ``v(m_n)`` between the
        approximate and full models.  Must lie in (0, 1).
    delta:
        Probability with which the bound may be violated.  Must lie in
        (0, 1); the paper's experiments use 0.05.
    """

    epsilon: float
    delta: float = DELTA

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ContractError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ContractError(f"delta must lie in (0, 1), got {self.delta}")

    @classmethod
    def from_accuracy(cls, accuracy: float, delta: float = DELTA) -> ApproximationContract:
        """Build a contract from a requested accuracy ``(1 − ε) × 100 %``.

        The paper's figures are parameterised by requested accuracy (80 %,
        95 %, 99 %, ...); this helper converts that into the ε the estimators
        work with.
        """
        if not 0.0 < accuracy < 1.0:
            raise ContractError(
                f"requested accuracy must lie in (0, 1) exclusive, got {accuracy}"
            )
        return cls(epsilon=1.0 - accuracy, delta=delta)

    @property
    def requested_accuracy(self) -> float:
        """The accuracy ``1 − ε`` this contract corresponds to."""
        return 1.0 - self.epsilon

    @property
    def confidence(self) -> float:
        """The confidence level ``1 − δ``."""
        return 1.0 - self.delta

    def describe(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "requested_accuracy": self.requested_accuracy,
        }
