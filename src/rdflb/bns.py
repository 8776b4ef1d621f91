"""Finite-blocklength bounds for the binary sources, symmetric or not.

This module owns every binary bound of a Bernoulli(p) source, p <= 1/2:
the rearrangement lower bound and the ordered-statistics (OS) and
reference-rate (RR) upper bounds.  ``bss`` reads the two upper bounds
from here at p = 1/2; its lower bound is the closed-form sum, a second
route to this one's.

The lower bound serves the source words in decreasing probability order
(weight ascending) from the codewords' distance slots, nearest first, and
sums P(distance > t) over t in one vectorized pass over the weight classes.

The upper bounds decompose over the Hamming weight w of the source word,
whose distance law is a convolution of two binomials.  The weight classes
go through in blocks of max(1, _CELLS // (n + 1)) classes.  One ln j!
table serves every binomial row; the mismatch laws, their exponentials,
the logs of the convolutions and the running-sum scans are 2-D array
operations over the block, built only up to the column where the scan
ends, and only the convolution runs once per class.
A one-part class (w = 0 or w = n) has one mismatch part, and that part
is its law, exactly: it skips the convolution and the floor.  Each bound
reads its thresholds (and RR its leftover budgets) from that one exact
scan.  At p = 1/2 the codeword marginals z and z0 are exactly 1/2, so
every class has the Binomial(n, 1/2) distance law, ln p(x) = -n ln 2 and
the cap u_w = 1/2: the one-part class w = 0 alone is their average,
exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_ZERO, _log_factorials, log_binomial_row, log_diff, logsumexp
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
# Cells in one 2-D temporary of the block pipeline: a block holds
# max(1, _CELLS // (n + 1)) weight classes, each law built to its scan's end
_CELLS = 8192


@dataclass(frozen=True)
class OrderedStatsBound:
    """Ordered-statistics bound value with its distance threshold.

    degenerate is set when the per-codeword budget exceeds the whole
    probability space (tiny Q), in which case the threshold is clamped at n.
    """

    value: float
    threshold: int
    degenerate: bool = False


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


def _mismatch_parts(n: int, w: np.ndarray, z: float, g: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Log pmfs of the mismatch counts among the w ones and n - w zeros of x
    at the counts i and j, broadcast against w[:, None], -inf past a part's
    end; g[k] = ln k!.  The in-place sums keep the float operations of
    ``log_binomial_row`` and the log-probability terms at every column."""
    lz, l1z = math.log(z), math.log1p(-z)
    wc, m = w[:, None], n - w[:, None]
    # g[k - i] wraps around where i > k; those cells are masked
    ones = g[wc] - g[i]
    ones -= g[wc - i]
    ones += (wc - i) * lz
    ones += i * l1z
    ones[i > wc] = LOG_ZERO
    zeros = g[m] - g[j]
    zeros -= g[m - j]
    zeros += j * lz
    zeros += (m - j) * l1z
    zeros[j > m] = LOG_ZERO
    return ones, zeros


def _part_maxima(n: int, w: np.ndarray, z: float, g: np.ndarray):
    """Maxima of the full mismatch parts (ones, zeros) of the classes w: a
    Binomial(k, q) row peaks in floats within one column of floor((k + 1) q)."""
    wc, near = w[:, None], np.array([-1, 0, 1])
    i = np.clip(np.floor((wc + 1) * (1.0 - z)).astype(int) + near, 0, wc)
    j = np.clip(np.floor((n - wc + 1) * z).astype(int) + near, 0, n - wc)
    return np.array([part.max(axis=1) for part in _mismatch_parts(n, w, z, g, i, j)])


def _prefix_convolve(a: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """``np.convolve(a, v)[:size]`` bit for bit for len(a) >= len(v): output k
    is the same dot product of a[: k + 1] and v[k::-1], from the cut parts."""
    return np.correlate(a[: size + 2], v[: size + 1][::-1], "full")[:size]


def _first_over(n: int, z: float, g: np.ndarray, limit: float) -> int:
    """First column of the Binomial(n, z) log pmf above limit, n if none: a
    bisection over its rise to the mode, on scalar ``_mismatch_parts`` terms."""
    lz, l1z = math.log(z), math.log1p(-z)
    mode = min(n, int((n + 1) * z))
    j = bisect_left(range(mode + 1), True, key=lambda j: g[n] - g[j] - g[n - j] + j * lz + (n - j) * l1z > limit)
    return j if j <= mode else n


def _block_laws(n: int, w: np.ndarray, z: float, g: np.ndarray, log_budget: float, size: int, tops: np.ndarray):
    """Distance laws of a block of weight classes, scanned against log_budget.

    Row k of ``law`` is ln P(n d(x,y) = d), built for d < size only, for x
    of weight w[k] (w ascending) and codeword bits i.i.d. Bernoulli(z).  A
    one-part class (w = 0 or w = n) has one mismatch part, and its law is
    that part, exactly: it skips the convolution and the floor, and the
    scan reads it as it is.  For every other class one max-shifted linear
    convolution of the two mismatch laws gives every column above _FLOOR,
    relative to the full parts' maxima ``tops`` (``_part_maxima``).  A
    column below it may have lost terms to underflow; it counts as zero in
    the block's scan, and is recomputed by a log-sum-exp over its
    anti-diagonal only where a scan against log_budget reads it: up to
    column ``last[k]``, the first whose running sum of the above-floor
    columns, a lower estimate of the exact one, exceeds log_budget + _SLACK
    (n + 1 if none does).  A block whose scan outruns size is built again
    at full length: ``law[k, : last[k] + 1]`` comes back exact, and its
    running sum gives the threshold d[k] and the log of the budget left
    over after the first d[k] columns, ``left[k]``, as the exact law's
    ``hamming_ball_threshold`` does.  Returns (law, d, left, last).
    """
    span = np.arange(size + 2)  # the convolution's longer operand reads size + 2
    ones, zeros = _mismatch_parts(n, w, z, g, span[: w.max() + 1], span[: n - w.min() + 1])
    law = np.empty((w.size, size))
    low = np.zeros(law.shape, dtype=bool)
    # w ascending: a one-part class can only be the first (w = 0) or the
    # last (w = n) row, and the other part is its single entry ln 1 = 0
    a, b = int(w[0] == 0), w.size - int(w[-1] == n)
    if a:
        law[0] = zeros[0, :size]
    if b < w.size:
        law[-1] = ones[-1, :size]
    if a < b:
        mid = law[a:b]
        top1, top0 = tops[:, a:b]
        shift = top1 + top0
        with np.errstate(divide="ignore", under="ignore"):
            e1, e0 = ones[a:b] - top1[:, None], zeros[a:b] - top0[:, None]
            np.exp(e1, out=e1)
            np.exp(e0, out=e0)
            # np.convolve's operand roles on the full parts, the longer first
            for k, wk in enumerate(w[a:b].tolist()):
                x, y = e1[k, : wk + 1], e0[k, : n - wk + 1]
                mid[k] = _prefix_convolve(*((y, x) if n - wk > wk else (x, y)), size)
            del e1, e0  # a large class's recompute below needs the room
            np.log(mid, out=mid)
        mid += shift[:, None]
        np.less(mid, (shift + _FLOOR)[:, None], out=low[a:b])
    floored = np.where(low, LOG_ZERO, law)
    # the running sum passes log_budget + _SLACK no later than the first
    # column that passes it alone, so the scan stops there
    over = floored > log_budget + _SLACK
    width = int(np.where(over.any(axis=1), over.argmax(axis=1), size - 1).max()) + 1
    cum = np.logaddexp.accumulate(floored[:, :width], axis=1)
    del floored, over
    last = (cum <= log_budget + _SLACK).sum(axis=1)
    if size <= n and last.max() >= size:
        return _block_laws(n, w, z, g, log_budget, n + 1, tops)
    for k in np.flatnonzero(low.any(axis=1) & (low.argmax(axis=1) <= last)):
        wk, lk = int(w[k]), int(last[k])
        cols = np.flatnonzero(low[k, : lk + 1])
        i = np.arange(max(0, cols[0] - (n - wk)), min(wk, cols[-1]) + 1)
        j = cols[:, None] - i
        inside = (j >= 0) & (j <= n - wk)
        terms = np.where(inside, ones[k, i] + zeros[k, np.clip(j, 0, n - wk)], LOG_ZERO)
        law[k, cols] = logsumexp(terms, axis=1)
        np.logaddexp.accumulate(law[k, : lk + 1], out=cum[k, : lk + 1])
    d = (cum <= log_budget).sum(axis=1)
    left = log_diff(log_budget, np.where(d > 0, cum[np.arange(d.size), d - 1], LOG_ZERO))
    return law, d, left, last


def _class_scans(n: int, weights: np.ndarray, z: float, log_budget: float):
    """The weight classes ``weights`` scanned against log_budget, block by block.

    Yields (w, law, d, left) per block, as ``_block_laws`` gives them, each
    law built only to its scan's end.  One more one in x moves the distance
    to a codeword by 1, so last(w') <= last(w) + (w' - w): a block is built
    up to its predecessor's largest last plus the step to its largest
    weight.  The first block takes the w = 0 law, in or out of the window:
    the scan of a one-part law ends by its first column above the budget."""
    g = _log_factorials(n)
    step = max(1, _CELLS // (n + 1))
    tops = _part_maxima(n, weights, z, g)
    reach = _first_over(n, z, g, log_budget + _SLACK)
    for s in range(0, weights.size, step):
        w = weights[s : s + step]
        size = min(n + 1, reach + int(w[-1]) + 1)
        law, d, left, last = _block_laws(n, w, z, g, log_budget, size, tops[:, s : s + step])
        yield w, law, d, left
        reach = int(last.max()) - int(w[-1])


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
    # the unserved words of class c, (cnt[c] - slots) words at p^c (1-p)^(n-c)
    part = np.exp(cls[c] - lb[c] + log_diff(cnt[c], slots) - top) / total
    return float((above[np.clip(c - lo + 1, 0, above.size - 1)] + part).sum() / n)


# ---------------------------------------------------------------------------
# per-weight upper bounds
# ---------------------------------------------------------------------------

def _weight_window(n: int, p: float):
    """Weights with non-negligible probability, their log weights, and the
    log of the discarded tail mass, summed over the weights left out.

    At p = 1/2 the class w = 0 stands for all of them, exactly (see the
    module docstring).
    """
    if p == 0.5:
        return np.array([0]), np.array([0.0]), LOG_ZERO
    lb = log_binomial_row(n)
    w = np.arange(n + 1)
    logw = lb + w * math.log(p) + (n - w) * math.log1p(-p)
    keep = logw >= logw.max() - 92.0
    return w[keep], logw[keep], logsumexp(logw[~keep])


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
    # the first distance whose running mass exceeds the budget; "reaches"
    # differs only when the running mass equals it exactly
    t = np.minimum(np.concatenate([d for _, _, d, _ in _class_scans(n, weights, z, log_budget)]), n)
    total = 0.0
    for tk, lw in zip(t.tolist(), logw.tolist()):
        total += math.exp(lw) * ((1.0 - eps) * tk / n + eps / 2.0)
    total += math.exp(log_tail) * ((1.0 - eps) + eps / 2.0)
    return OrderedStatsBound(total, int(t.max()))


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
    lse = []
    for w, law, dx, left in _class_scans(n, weights, z0, log_budget):
        # the block's laws up to its largest dx become its terms in place: the
        # whole columns below dx, the leftover budget at dx (if dx <= n),
        # times the likelihood ratios
        j = np.arange(min(int(dx.max()) + 1, n + 1))
        terms = law[:, : j.size]
        terms[j >= dx[:, None]] = LOG_ZERO
        at = np.flatnonzero(dx <= n)
        terms[at, dx[at]] = left[at]
        terms += j * ld0
        terms += (n - j) * l1d0
        terms -= (w * lp + (n - w) * l1p)[:, None]
        top = terms.max(axis=1)  # finite: column 0 is law[0] or the budget
        terms -= top[:, None]
        np.exp(terms, out=terms)
        # row by row over each class's own entries: padding would change the
        # order of numpy's pairwise summation, and so the last bits
        with np.errstate(divide="ignore"):
            lse.extend((np.log([terms[k, : dk + 1].sum() for k, dk in enumerate(dx.tolist())]) + top).tolist())
    total = 0.0
    for w, lw, lk in zip(weights.tolist(), logw.tolist(), lse):
        u_w = z0 * (1.0 - w / n) + (1.0 - z0) * w / n
        total += math.exp(lw) * (u_w * math.exp(lk))
    total += math.exp(log_tail) * (1.0 - z0)
    return d0 + total
