"""Finite-blocklength distortion bounds for the binary symmetric source.

The sphere-covering lower bound is the paper's closed-form sum over the
distances that leave words unserved: every source word is equally likely,
so it needs no weight classes, and it is a second route to ``bns.lower_bound``
at p = 1/2.  The OS and RR upper bounds are the ``bns`` bounds at p = 1/2,
which evaluate one weight class, exactly.  This module adds the legacy
reference-rate curve, a comparison that bns has no analogue of.
"""

from __future__ import annotations

import numpy as np

from . import bns
from .bns import OrderedStatsBound, hamming_ball_threshold
from .logdomain import _log_factorials
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

    Each of the Q = 2**(nR) codewords serves at most C(n,i) words at
    distance i, so E[d] >= (1/n) sum_t (1 - Q V(t) 2**-n) over the t with
    Q V(t) < 2**n, where V(t) = sum_{i<=t} C(n,i).  Those t end before the
    first column with Q C(n,t) > 2**n (``bns._first_over``), so only that
    prefix of the running log sum is built.  The same quantity as
    ``bns.lower_bound`` at p = 1/2, by another route.
    """
    bns._check(n, rate, 0.5)
    g = _log_factorials(n)
    log_q, log_words = n * rate * bns._LN2, n * bns._LN2
    j = np.arange(bns._first_over(n, 0.5, g, -log_q) + 1)
    served = np.logaddexp.accumulate(g[n] - g[j] - g[n - j]) + log_q  # ln Q V(t)
    served = served[served < log_words]
    return float(-np.expm1(served - log_words).sum() / n)


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
