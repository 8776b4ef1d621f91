"""Finite-blocklength bounds for the binary sources, symmetric or not.

This module owns every binary bound of a Bernoulli(p) source, p <= 1/2:
the rearrangement lower bound and the ordered-statistics (OS) and
reference-rate (RR) upper bounds; ``bss`` reads all three from here at
p = 1/2.

The lower bound serves the source words in decreasing probability order
(weight ascending) from the codewords' distance slots, nearest first, and
sums P(distance > t) over t in one vectorized pass over the weight classes.

The upper bounds decompose over the Hamming weight w of the source word,
whose distance law is a convolution of two binomials.  At p = 1/2 the
codeword marginals z and z0 are exactly 1/2, so every class has the
Binomial(n, 1/2) distance law, ln p(x) = -n ln 2 and the cap u_w = 1/2:
the class w = 0 alone is their average, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_ZERO, log_binomial_row, log_diff, logsumexp
from .ratedistortion import BinaryNonSymmetricSource, solve
from .special import binary_entropy_nats

__all__ = [
    "OrderedStatsBound",
    "hamming_ball_threshold",
    "log_q_minus",
    "lower_bound",
    "upper_bound_os",
    "upper_bound_rr",
]

_LN2 = math.log(2.0)
# A distance-law column whose linear convolution lies below this, in nats
# relative to the product of the two part maxima, may have lost terms to
# underflow; above it every lost term is below e^-58 of the column.
_FLOOR = -650.0
# Margin on the running sum that bounds the columns a scan reads, far above
# the roundoff of the convolution
_SLACK = 1e-9


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


def log_q_minus(n: float, rate: float) -> float:
    """ln(2**(n R) - 1), stable for huge n R."""
    return log_diff(n * rate * _LN2, 0.0)


def _log_one_minus_inv_q_pow(n: int, rate: float) -> float:
    """(Q-1) ln((Q-1)/Q) with Q = 2**(nR), stable for all magnitudes."""
    u = math.exp(-n * rate * _LN2)  # 1/Q, may underflow to 0 for huge nR
    if u < 1e-8:
        # (1/u - 1) log1p(-u) = -1 + u/2 + u^2/6 + O(u^3)
        return -1.0 + 0.5 * u + u * u / 6.0
    return (1.0 / u - 1.0) * math.log1p(-u)


def hamming_ball_threshold(log_masses: np.ndarray, log_budget: float) -> tuple[int, float]:
    """Largest d with sum_{j<d} exp(log_masses[j]) <= exp(log_budget), plus the
    log of the budget left over after that partial sum.

    A partial sum is admitted only if its running log sum is <= log_budget,
    with no slack.  d equals len(log_masses) when even the full sum fits.
    """
    cum = np.logaddexp.accumulate(log_masses)
    d = int(np.searchsorted(cum, log_budget, side="right"))
    return d, log_diff(log_budget, cum[d - 1]) if d else log_budget


def _mismatch_parts(n: int, w: int, z: float):
    """Log pmfs of the mismatch counts among the w ones and n-w zeros of x."""
    lz, l1z = math.log(z), math.log1p(-z)
    i = np.arange(w + 1)
    ones = log_binomial_row(w) + (w - i) * lz + i * l1z
    j = np.arange(n - w + 1)
    zeros = log_binomial_row(n - w) + j * lz + (n - w - j) * l1z
    return ones, zeros


def _log_distance_law(n: int, w: int, z: float, log_budget: float = math.inf) -> np.ndarray:
    """ln P(n d(x,y) = d), d = 0..n, for weight-w x and codeword bits i.i.d. Bernoulli(z).

    One max-shifted linear convolution of the two mismatch laws gives every
    column above _FLOOR.  A column below it may have lost terms to underflow
    and is recomputed by a log-sum-exp over its anti-diagonal, but only where
    a scan against log_budget reads it: up to the first column where the
    running sum of the above-floor columns, a lower estimate of the exact
    one, exceeds log_budget + _SLACK.  Only the columns up to that one come
    back, as the exact running sum passes log_budget there too; the default
    budget returns all n + 1.
    """
    ones, zeros = _mismatch_parts(n, w, z)
    shift = ones.max() + zeros.max()
    with np.errstate(divide="ignore", under="ignore"):
        law = np.log(np.convolve(np.exp(ones - ones.max()), np.exp(zeros - zeros.max()))) + shift
    low = law < shift + _FLOOR
    last, _ = hamming_ball_threshold(np.where(low, LOG_ZERO, law), log_budget + _SLACK)
    cols = np.flatnonzero(low[: last + 1])
    if cols.size:
        i = np.arange(max(0, cols[0] - (n - w)), min(w, cols[-1]) + 1)
        j = cols[:, None] - i
        inside = (j >= 0) & (j <= n - w)
        law[cols] = logsumexp(np.where(inside, ones[i] + zeros[np.clip(j, 0, n - w)], LOG_ZERO), axis=1)
    return law[: last + 1]


def _check(n: int, rate: float, p: float) -> None:
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if not 0.0 < p <= 0.5:
        raise ValueError(f"need 0 < p <= 0.5, got {p}")
    if not 0.0 < rate < binary_entropy_nats(p) / _LN2:
        raise ValueError(f"rate {rate} outside (0, H(p))")


# ---------------------------------------------------------------------------
# lower bound: source words served nearest first, most probable first
# ---------------------------------------------------------------------------

def lower_bound(n: int, rate: float, p: float) -> float:
    """Rearrangement lower bound on the distortion of any size-2**(nR) quantizer.

    Q codewords serve at most Q C(n,i) words at distance i, so serving the most
    probable words nearest first gives E[d] >= (1/n) sum_t P(distance > t).  This
    is the paper's D* + (lambda/n) residue with ln q(x|y) = n ln(1-D*) - i/lambda
    at distance i and R ln 2 = H(p) - h(D*) substituted: D* and lambda cancel.
    """
    _check(n, rate, p)
    lb = log_binomial_row(n)
    cnt = np.logaddexp.accumulate(lb)  # ln #words of weight <= k, the most probable first
    slots = n * rate * _LN2 + cnt  # ln #words served at distance <= t
    slots = slots[slots < cnt[-1]]  # the distances t that leave words unserved
    c = np.searchsorted(cnt, slots)  # the weight class of the last word served
    # ln of the class masses C(n,k) p^k (1-p)^(n-k), short of the common ln (1-p)^n
    cls = lb + np.arange(n + 1.0) * (math.log(p) - math.log1p(-p))
    top = cls.max()
    # classes below e^-745 of the largest weigh nothing in a double
    live = np.flatnonzero(cls >= top - 745.0)
    lo, hi = live[0], live[-1]
    mass = np.exp(cls[lo : hi + 1] - top)
    total = mass.sum()
    # above[i]: mass of the classes lo + i and up, normalized to the window total
    # so that the rounding of ln C(n,k) cancels; 1 below the window, 0 above it
    above = np.append(np.cumsum(mass[::-1])[::-1], 0.0) / total
    with np.errstate(divide="ignore"):
        # the unserved words of class c, (cnt[c] - slots) words at p^c (1-p)^(n-c)
        part = np.exp(cls[c] - lb[c] + cnt[c] + np.log1p(-np.exp(slots - cnt[c])) - top) / total
    return float((above[np.clip(c - lo + 1, 0, above.size - 1)] + part).sum() / n)


# ---------------------------------------------------------------------------
# per-weight upper bounds
# ---------------------------------------------------------------------------

def _weight_window(n: int, p: float):
    """Weights with non-negligible probability, their log weights, and the
    log of the discarded tail mass.

    At p = 1/2 the class w = 0 stands for all of them, exactly (see the
    module docstring).
    """
    if p == 0.5:
        return np.array([0]), np.array([0.0]), LOG_ZERO
    lb = log_binomial_row(n)
    w = np.arange(n + 1)
    logw = lb + w * math.log(p) + (n - w) * math.log1p(-p)
    keep = logw >= logw.max() - 92.0
    kept = float(logsumexp(logw[keep]))
    tail = log_diff(0.0, min(kept, 0.0))
    return w[keep], logw[keep], tail


def upper_bound_os(n: int, rate: float, p: float, eps: float) -> OrderedStatsBound:
    """Ordered-statistics bound averaged over the weight classes of x.

    Per weight the threshold t is the smallest distance whose cumulative
    mass under the optimal codeword marginal reaches ln(1/eps)/(Q-1).
    """
    _check(n, rate, p)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    z = solve(BinaryNonSymmetricSource(p), rate).marginal_one_prob
    log_budget = math.log(math.log(1.0 / eps)) - log_q_minus(n, rate)
    if log_budget > 0.0:
        return OrderedStatsBound((1.0 - eps) + eps / 2.0, n, degenerate=True)
    weights, logw, log_tail = _weight_window(n, p)
    total = 0.0
    t_max = 0
    for w, lw in zip(weights, logw):
        # the first distance whose running mass exceeds the budget; "reaches"
        # differs only when the running mass equals it exactly
        t, _ = hamming_ball_threshold(_log_distance_law(n, int(w), z, log_budget), log_budget)
        t = min(t, n)
        t_max = max(t_max, t)
        total += math.exp(lw) * ((1.0 - eps) * t / n + eps / 2.0)
    total += math.exp(log_tail) * ((1.0 - eps) + eps / 2.0)
    return OrderedStatsBound(total, t_max)


def upper_bound_rr(n: int, rate: float, p: float, d0: float) -> float:
    """Reference-rate bound with the extra codeword drawn at distortion d0.

    Per weight w the value cap is u_w = z0 (1 - w/n) + (1 - z0) w/n and the
    mass budget is (1/Q)((Q-1)/Q)**(Q-1); the capped region collects the
    likelihood ratios q0(x|y)/p(x) = D0^j (1-D0)^(n-j) / p^w (1-p)^(n-w).
    """
    _check(n, rate, p)
    d = solve(BinaryNonSymmetricSource(p), rate).dstar
    if not d < d0 < p:
        raise ValueError(f"need D < d0 < p with D={d:.6g}, got d0={d0}")
    z0 = (p - d0) / (1.0 - 2.0 * d0)
    log_budget = -n * rate * _LN2 + _log_one_minus_inv_q_pow(n, rate)
    ld0, l1d0 = math.log(d0), math.log1p(-d0)
    lp, l1p = math.log(p), math.log1p(-p)
    weights, logw, log_tail = _weight_window(n, p)
    total = 0.0
    for w, lw in zip(weights, logw):
        w = int(w)
        law = _log_distance_law(n, w, z0, log_budget)
        dx, log_left = hamming_ball_threshold(law, log_budget)
        # whole columns below dx, the leftover budget at dx (if dx <= n)
        mass = np.append(law[:dx], log_left)[: n + 1]
        j = np.arange(mass.size)
        terms = mass + j * ld0 + (n - j) * l1d0 - (w * lp + (n - w) * l1p)
        u_w = z0 * (1.0 - w / n) + (1.0 - z0) * w / n
        h_w = u_w * math.exp(logsumexp(terms))
        total += math.exp(lw) * h_w
    total += math.exp(log_tail) * (1.0 - z0)
    return d0 + total
