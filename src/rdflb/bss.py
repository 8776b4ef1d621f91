"""Finite-blocklength distortion bounds for the binary symmetric source.

All Hamming-ball masses and codebook sizes are handled in the log domain;
the bound values themselves are O(1) distortions returned as doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_ZERO, log_binomial_row, log_diff, logsumexp
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


@dataclass(frozen=True)
class OrderedStatsBound:
    """Ordered-statistics bound value with its distance threshold.

    degenerate is set when the per-codeword budget exceeds the whole
    probability space (tiny Q), in which case the threshold is clamped at n.
    """

    value: float
    threshold: int
    degenerate: bool = False

    def __float__(self) -> float:
        return self.value


def _check(n: int, rate: float) -> None:
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")


def log_q_minus(n: float, rate: float, shift: int = 1) -> float:
    """ln(2**(n R) - shift), stable for huge n R."""
    lq = n * rate * _LN2
    return log_diff(lq, math.log(shift)) if shift else lq


def hamming_ball_threshold(log_masses: np.ndarray, log_budget: float) -> tuple[int, float]:
    """Largest d with sum_{j<d} exp(log_masses[j]) <= budget, plus the log
    of the leftover budget after the partial sum.

    Returns (d, log_leftover); d may equal len(log_masses) when even the
    full sum fits.
    """
    total = LOG_ZERO
    d = 0
    for j, lm in enumerate(log_masses):
        candidate = float(np.logaddexp(total, lm))
        if candidate > log_budget + 1e-13:
            break
        total = candidate
        d = j + 1
    leftover = log_diff(log_budget, total) if log_budget >= total else LOG_ZERO
    return d, leftover


def lower_bound(n: int, rate: float) -> float:
    """Sphere-covering style lower bound on the size-2**(nR) quantizer distortion.

    The Hamming radius D packs mass 2**(-n R) around each codeword:
    D = max{d : sum_{j<d} C(n,j) <= 2**(n(1-R))}, the fractional layer
    alpha fills the remainder, and the bound is the mean distance-weighted
    mass Q 2**-n [sum_{j<D} C(n,j) j/n + alpha C(n,D) D/n].
    """
    _check(n, rate)
    lb = log_binomial_row(n)
    d, log_rem = hamming_ball_threshold(lb, n * (1.0 - rate) * _LN2)
    if d > n:
        raise ValueError("rate too small: ball exceeds the whole space")
    # terms C(n,j) * (j/n), j < d, plus the alpha term at j = d
    terms = [lb[j] + math.log(j / n) for j in range(1, d)]
    if d >= 1 and log_rem > LOG_ZERO and d <= n:
        terms.append(log_rem + math.log(d / n))  # log_rem = ln(alpha C(n,d))
    if not terms:
        return 0.0
    log_sum_terms = logsumexp(np.array(terms))
    return math.exp(n * (rate - 1.0) * _LN2 + log_sum_terms)


def upper_bound_os(n: int, rate: float, eps: float) -> OrderedStatsBound:
    """Ordered-statistics achievability bound for a uniform random codebook.

    t_eps is the smallest t with  sum_{j<=t} C(n,j) 2**-n >= ln(1/eps)/(Q-1);
    the bound is (1-eps) t_eps / n + eps/2.
    """
    _check(n, rate)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    log_budget = math.log(math.log(1.0 / eps)) - log_q_minus(n, rate, 1)
    if log_budget > 0.0:
        # budget exceeds total mass: threshold clamps at n
        return OrderedStatsBound((1.0 - eps) + eps / 2.0, n, degenerate=True)
    lb = log_binomial_row(n) - n * _LN2
    total = LOG_ZERO
    t_eps = n
    for t in range(n + 1):
        total = float(np.logaddexp(total, lb[t]))
        if total >= log_budget:
            t_eps = t
            break
    return OrderedStatsBound((1.0 - eps) * t_eps / n + eps / 2.0, t_eps)


def _log_one_minus_inv_q_pow(n: int, rate: float) -> float:
    """(Q-1) ln((Q-1)/Q) with Q = 2**(nR), stable for all magnitudes."""
    u = math.exp(-n * rate * _LN2)  # 1/Q, may underflow to 0 for huge nR
    if u < 1e-8:
        # (1/u - 1) log1p(-u) = -1 + u/2 + u^2/6 + O(u^3)
        return -1.0 + 0.5 * u + u * u / 6.0
    return (1.0 / u - 1.0) * math.log1p(-u)


def upper_bound_rr(n: int, rate: float, ref_rate: float) -> float:
    """Reference-rate achievability bound for a uniform random codebook.

    One extra codeword is drawn from the optimal conditional at the lower
    reference rate; its crossover is the reference distortion
    p = H^-1(1 - ref_rate).  The mass-capped correction uses the budget
    B = (1/(2Q)) ((Q-1)/Q)**(Q-1).
    """
    _check(n, rate)
    if not 0.0 < ref_rate < rate:
        raise ValueError(f"need 0 < ref_rate < rate, got {ref_rate}")
    p = inverse_binary_entropy(1.0 - ref_rate)
    log_btilde = -_LN2 - n * rate * _LN2 + _log_one_minus_inv_q_pow(n, rate)
    lb = log_binomial_row(n)
    # threshold: (1/2) sum_{j<d} C(n,j) <= 2**n * B
    d, log_rem = hamming_ball_threshold(lb - _LN2, n * _LN2 + log_btilde)
    lp, l1p = math.log(p), math.log1p(-p)
    terms = [-_LN2 + lb[j] + j * lp + (n - j) * l1p for j in range(min(d, n + 1))]
    if d <= n and log_rem > LOG_ZERO:
        terms.append(log_rem + d * lp + (n - d) * l1p)  # log_rem = ln(l C(n,d))
    correction = math.exp(logsumexp(np.array(terms))) if terms else 0.0
    return p + correction


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
