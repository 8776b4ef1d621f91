"""Finite-blocklength bounds for the binary non-symmetric source.

The lower bound pairs the sorted source masses with the largest codeword
likelihoods (rearrangement inequality); both arrays have 2**n entries but
only O(n) distinct levels, so the pairing is walked level by level with
log-domain multiplicities.  The upper bounds decompose over the Hamming
weight of the source word, whose distance law is a convolution of two
binomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bss import OrderedStatsBound, _log_one_minus_inv_q_pow, hamming_ball_threshold, log_q_minus
from .logdomain import LOG_ZERO, log_binomial_row, log_diff, logsumexp
from .ratedistortion import BinaryNonSymmetricSource, solve
from .special import binary_entropy_nats

__all__ = [
    "WeightProfile",
    "weight_distance_pmf",
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
class WeightProfile:
    """Distribution of the Hamming distance n*d(x, y) for a weight-w word x
    against a codeword with i.i.d. Bernoulli(z) bits."""

    n: int
    w: int
    z: float
    log_pmf: np.ndarray  # index d = 0..n

    @property
    def pmf(self) -> np.ndarray:
        return np.exp(self.log_pmf)


def _mismatch_parts(n: int, w: int, z: float):
    """Log pmfs of the mismatch counts among the w ones and n-w zeros of x."""
    lz, l1z = math.log(z), math.log1p(-z)
    i = np.arange(w + 1)
    ones = log_binomial_row(w) + (w - i) * lz + i * l1z
    j = np.arange(n - w + 1)
    zeros = log_binomial_row(n - w) + j * lz + (n - w - j) * l1z
    return ones, zeros


def _scan(law: np.ndarray, log_budget: float) -> tuple[int, np.ndarray]:
    """Running log sums of law, in index order, and the first index where
    they exceed log_budget (law.size when none does)."""
    cum = np.logaddexp.accumulate(law)
    return int(np.searchsorted(cum, log_budget, side="right")), cum


def _log_distance_law(n: int, w: int, z: float, log_budget: float = math.inf) -> np.ndarray:
    """ln P(n d(x,y) = d), d = 0..n, for weight-w x and codeword bits i.i.d. Bernoulli(z).

    One max-shifted linear convolution of the two mismatch laws gives every
    column above _FLOOR.  A column below it may have lost terms to underflow
    and is recomputed by a log-sum-exp over its anti-diagonal, but only where
    a scan against log_budget reads it: up to the first column where the
    running sum of the above-floor columns, a lower estimate of the exact
    one, exceeds log_budget + _SLACK.  The default budget reads every column.
    """
    ones, zeros = _mismatch_parts(n, w, z)
    shift = ones.max() + zeros.max()
    with np.errstate(divide="ignore", under="ignore"):
        law = np.log(np.convolve(np.exp(ones - ones.max()), np.exp(zeros - zeros.max()))) + shift
    low = law < shift + _FLOOR
    last, _ = _scan(np.where(low, LOG_ZERO, law), log_budget + _SLACK)
    cols = np.flatnonzero(low[: last + 1])
    if cols.size:
        i = np.arange(max(0, cols[0] - (n - w)), min(w, cols[-1]) + 1)
        j = cols[:, None] - i
        inside = (j >= 0) & (j <= n - w)
        law[cols] = logsumexp(np.where(inside, ones[i] + zeros[np.clip(j, 0, n - w)], LOG_ZERO), axis=1)
    return law


def weight_distance_pmf(n: int, w: int, z: float) -> WeightProfile:
    """P(n d(x,y) = d) for weight-w x, codeword bits i.i.d. Bernoulli(z)."""
    if not 0 <= w <= n:
        raise ValueError(f"need 0 <= w <= n, got w={w}, n={n}")
    if not 0.0 < z < 1.0:
        raise ValueError(f"need 0 < z < 1, got {z}")
    return WeightProfile(n, w, z, _log_distance_law(n, w, z))


def _check(n: int, rate: float, p: float) -> None:
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if not 0.0 < p <= 0.5:
        raise ValueError(f"need 0 < p <= 0.5, got {p}")
    if not 0.0 < rate < binary_entropy_nats(p) / _LN2:
        raise ValueError(f"rate {rate} outside (0, H(p))")


# ---------------------------------------------------------------------------
# lower bound: rearrangement pairing of source masses and codeword likelihoods
# ---------------------------------------------------------------------------

def _paired_sum_nats(n: int, rate: float, p: float, d: float) -> float:
    """sum a_i b_i over the 2**n best pairings, in nats.

    a-levels: source masses p^k (1-p)^(n-k), multiplicity C(n,k), descending.
    b-levels: ln q(x|y) at distance i, multiplicity Q C(n,i) up to the
    packing radius (leftover K at the radius), descending.
    """
    lb = log_binomial_row(n)
    d_t, log_rem = hamming_ball_threshold(lb, n * (1.0 - rate) * _LN2)
    log_q = n * rate * _LN2
    lp, l1p = math.log(p), math.log1p(-p)
    ld, l1d = math.log(d), math.log1p(-d)

    # a-levels in descending value order (p <= 1/2 makes k ascending work)
    a_vals = [k * lp + (n - k) * l1p for k in range(n + 1)]
    a_mult = [float(lb[k]) for k in range(n + 1)]
    # b-levels: distance i value in nats, with multiplicities summing to 2**n
    b_vals = [i * ld + (n - i) * l1d for i in range(d_t + 1)]
    b_mult = [log_q + float(lb[i]) for i in range(d_t)]
    b_mult.append(log_q + log_rem if log_rem > LOG_ZERO else LOG_ZERO)

    terms = []
    ia = ib = 0
    ra, rb = a_mult[0], b_mult[0]
    while ia <= n and ib <= d_t:
        if rb == LOG_ZERO:
            ib += 1
            if ib > d_t:
                break
            rb = b_mult[ib]
            continue
        if ra == LOG_ZERO:
            ia += 1
            if ia > n:
                break
            ra = a_mult[ia]
            continue
        take = min(ra, rb)
        val = -(a_vals[ia] + math.log(-b_vals[ib]))  # b values are < 0
        terms.append(take - val)
        ra = log_diff(ra, take) if ra > take else LOG_ZERO
        rb = log_diff(rb, take) if rb > take else LOG_ZERO
    return -math.exp(logsumexp(np.array(terms)))


def lower_bound(n: int, rate: float, p: float) -> float:
    """Rearrangement lower bound on the distortion of any size-2**(nR) quantizer."""
    _check(n, rate, p)
    sol = solve(BinaryNonSymmetricSource(p), rate)
    s = _paired_sum_nats(n, rate, p, sol.dstar)
    residue = n * rate * _LN2 - (s + n * binary_entropy_nats(p))
    return sol.dstar + sol.lambda_hat_nats / n * residue


# ---------------------------------------------------------------------------
# per-weight upper bounds
# ---------------------------------------------------------------------------

def _weight_window(n: int, p: float):
    """Weights with non-negligible probability, their log weights, and the
    log of the discarded tail mass."""
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
    log_budget = math.log(math.log(1.0 / eps)) - log_q_minus(n, rate, 1)
    if log_budget > 0.0:
        return OrderedStatsBound((1.0 - eps) + eps / 2.0, n, degenerate=True)
    weights, logw, log_tail = _weight_window(n, p)
    total = 0.0
    t_max = 0
    for w, lw in zip(weights, logw):
        t, _ = _scan(_log_distance_law(n, int(w), z, log_budget), log_budget)
        # budget demands cum_{<=t} >= b; _scan uses strict >, which differs
        # only when cum_{<=t} == b exactly (float equality is moot)
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
        dx, cum = _scan(law, log_budget)
        log_px = w * lp + (n - w) * l1p
        j = np.arange(dx)
        terms = law[:dx] + j * ld0 + (n - j) * l1d0 - log_px
        if dx <= n:
            cum_run = cum[dx - 1] if dx else LOG_ZERO
            log_l_mass = log_diff(log_budget, cum_run) if log_budget > cum_run else LOG_ZERO
            terms = np.append(terms, log_l_mass + dx * ld0 + (n - dx) * l1d0 - log_px)
        u_w = z0 * (1.0 - w / n) + (1.0 - z0) * w / n
        h_w = u_w * math.exp(logsumexp(terms))
        total += math.exp(lw) * h_w
    total += math.exp(log_tail) * (1.0 - z0)
    return d0 + total
