"""Finite-blocklength distortion bounds for the binary symmetric source.

The OS and RR upper bounds are the ``bns`` bounds at p = 1/2, where bns
evaluates one weight class exactly.  This module keeps the closed-form
sphere-covering lower bound (the bns rearrangement walk at p = 1/2 agrees to
5e-12 at n = 20 000, but walks O(n) levels in Python and is 20x slower), the
legacy curve and the asymptote.  Masses and codebook sizes are kept as logs.
"""

from __future__ import annotations

import math

import numpy as np

from . import bns
from .bns import OrderedStatsBound, hamming_ball_threshold, log_q_minus
from .logdomain import log_binomial_row, logsumexp
from .ratedistortion import BinarySymmetricSource, solve
from .special import inverse_binary_entropy

__all__ = [
    "OrderedStatsBound",
    "lower_bound",
    "upper_bound_os",
    "upper_bound_rr",
    "upper_bound_legacy",
    "log_q_minus",
    "hamming_ball_threshold",
]

_LN2 = math.log(2.0)


def _check(n: int, rate: float) -> None:
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")


def lower_bound(n: int, rate: float) -> float:
    """Sphere-covering style lower bound on the size-2**(nR) quantizer distortion.

    The Hamming radius D packs mass 2**(-n R) around each codeword:
    D = max{d : sum_{j<d} C(n,j) <= 2**(n(1-R))}, the fractional layer
    alpha fills the remainder, and the bound is the mean distance-weighted
    mass Q 2**-n [sum_{j<D} C(n,j) j/n + alpha C(n,D) D/n].
    """
    _check(n, rate)
    lb = log_binomial_row(n)
    # the budget is at least C(n, 0) = 1, so d >= 1
    d, log_rem = hamming_ball_threshold(lb, n * (1.0 - rate) * _LN2)
    if d > n:
        raise ValueError("rate too small: ball exceeds the whole space")
    # C(n,j) j/n for 0 < j < d, then alpha C(n,d) d/n with log_rem = ln(alpha C(n,d))
    terms = np.append(lb[1:d], log_rem) + np.log(np.arange(1, d + 1) / n)
    return math.exp(n * (rate - 1.0) * _LN2 + logsumexp(terms))


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
    _check(n, rate)
    if not 0.0 < ref_rate < rate:
        raise ValueError(f"need 0 < ref_rate < rate, got {ref_rate}")
    if not 0.0 < eps_rate < rate - ref_rate:
        raise ValueError(f"need 0 < eps_rate < rate - ref_rate, got {eps_rate}")
    d0 = inverse_binary_entropy(1.0 - ref_rate)
    return d0 + 2.0 ** (-(rate - ref_rate - eps_rate) * n)


def asymptote(rate: float) -> float:
    """D* of the binary symmetric source at the given rate."""
    return solve(BinarySymmetricSource(), rate).dstar
