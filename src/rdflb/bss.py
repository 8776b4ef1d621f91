"""Finite-blocklength distortion bounds for the binary symmetric source.

The sphere-covering lower bound and the OS and RR upper bounds are the
``bns`` bounds at p = 1/2, where every source word is equally likely: the
lower bound serves the words in any order, and the upper bounds evaluate
one weight class, exactly.  This module adds the legacy reference-rate
curve, a comparison that bns has no analogue of.
"""

from __future__ import annotations

from . import bns
from .bns import OrderedStatsBound, hamming_ball_threshold
from .special import inverse_binary_entropy

__all__ = [
    "OrderedStatsBound",
    "lower_bound",
    "upper_bound_os",
    "upper_bound_rr",
    "upper_bound_legacy",
    "hamming_ball_threshold",
]


def lower_bound(n: int, rate: float) -> float:
    """Sphere-covering lower bound on the size-2**(nR) quantizer distortion.

    Each codeword serves at most C(n,i) words at distance i, so the mean
    distance is at least that of the words served nearest first:
    ``bns.lower_bound`` at p = 1/2.
    """
    return bns.lower_bound(n, rate, 0.5)


def upper_bound_os(n: int, rate: float, eps: float) -> OrderedStatsBound:
    """Ordered-statistics achievability bound for a uniform random codebook.

    t_eps is the smallest t with  sum_{j<=t} C(n,j) 2**-n >= ln(1/eps)/(Q-1);
    the bound is (1-eps) t_eps / n + eps/2, ``bns.upper_bound_os`` at p = 1/2.
    """
    return bns.upper_bound_os(n, rate, 0.5, eps)


def upper_bound_rr(n: int, rate: float, ref_rate: float) -> float:
    """Reference-rate achievability bound for a uniform random codebook.

    One extra codeword is drawn from the optimal conditional at the lower
    reference rate, with crossover d0 = H^-1(1 - ref_rate): this is
    ``bns.upper_bound_rr`` at p = 1/2, whose cap 1/2 times its budget
    (1/Q)((Q-1)/Q)**(Q-1) is the paper's B = (1/(2Q))((Q-1)/Q)**(Q-1).
    """
    if not 0.0 < ref_rate < rate:
        raise ValueError(f"need 0 < ref_rate < rate, got {ref_rate}")
    return bns.upper_bound_rr(n, rate, 0.5, inverse_binary_entropy(1.0 - ref_rate))


def upper_bound_legacy(n: int, rate: float, ref_rate: float, eps_rate: float) -> float:
    """Classical reference-rate bound D0* + 2**(-(R - R0 - eps) n).

    Kept as a comparison curve; the maximum Hamming distortion is 1.
    """
    bns._check(n, rate, 0.5)
    if not 0.0 < ref_rate < rate:
        raise ValueError(f"need 0 < ref_rate < rate, got {ref_rate}")
    if not 0.0 < eps_rate < rate - ref_rate:
        raise ValueError(f"need 0 < eps_rate < rate - ref_rate, got {eps_rate}")
    d0 = inverse_binary_entropy(1.0 - ref_rate)
    return d0 + 2.0 ** (-(rate - ref_rate - eps_rate) * n)
