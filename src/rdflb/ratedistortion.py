"""Asymptotic rate-distortion operating points.

Unit conventions: rates are in bits at every public interface; the dual
slope lambda_hat (= -dD/dR) is stored in nats so that residues, which are
accumulated in nats, convert to distortion with a single multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .special import binary_entropy, inverse_binary_entropy

__all__ = [
    "BinarySymmetricSource",
    "BinaryNonSymmetricSource",
    "GaussianSource",
    "SourceModel",
    "RdSolution",
    "solve",
]

@dataclass(frozen=True)
class BinarySymmetricSource:
    """Uniform bits under Hamming distortion."""


@dataclass(frozen=True)
class BinaryNonSymmetricSource:
    """Bernoulli(p) bits under Hamming distortion, p <= 1/2."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 0.5:
            raise ValueError(f"need 0 < p <= 0.5, got {self.p}")


@dataclass(frozen=True)
class GaussianSource:
    """I.i.d. N(0, sigma2) coordinates under squared-error distortion."""

    sigma2: float

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError(f"need sigma2 > 0, got {self.sigma2}")


SourceModel = Union[BinarySymmetricSource, BinaryNonSymmetricSource, GaussianSource]


@dataclass(frozen=True)
class RdSolution:
    """Asymptotic operating point at rate R bits/symbol.

    dstar is the rate-distortion function value; lambda_hat_nats is the
    magnitude of the R-D slope -dD/dR with the rate measured in nats.
    For binary sources marginal_one_prob is P(y=1) of the optimal
    reconstruction marginal; for the Gaussian source marginal_variance is
    the variance sigma2 - D of the optimal codeword marginal.
    """

    dstar: float
    lambda_hat_nats: float
    marginal_one_prob: float | None = None
    marginal_variance: float | None = None


def source_entropy_bits(source: SourceModel) -> float:
    if isinstance(source, BinarySymmetricSource):
        return 1.0
    if isinstance(source, BinaryNonSymmetricSource):
        return binary_entropy(source.p)
    return math.inf


def solve(source: SourceModel, rate: float) -> RdSolution:
    """The asymptotic rate-distortion operating point at `rate` bits/symbol."""
    if not 0.0 < rate < source_entropy_bits(source):
        raise ValueError(f"rate {rate} outside (0, source entropy)")

    if not isinstance(source, GaussianSource):
        # the reconstruction marginal z; at p = 1/2 both differences round alike, so z is exactly 1/2
        p = source.p if isinstance(source, BinaryNonSymmetricSource) else 0.5
        d = inverse_binary_entropy(source_entropy_bits(source) - rate)
        z = (p - d) / (1.0 - 2.0 * d)
        lam = 1.0 / math.log((1.0 - d) / d)
        return RdSolution(d, lam, marginal_one_prob=z)

    d = source.sigma2 * 2.0 ** (-2.0 * rate)
    # D(R) = sigma2 exp(-2 R_nats)  =>  -dD/dR_nats = 2 D
    return RdSolution(d, 2.0 * d, marginal_variance=source.sigma2 - d)
