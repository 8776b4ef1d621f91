"""Special functions: entropies, chi-squared family, hyperspherical areas.

The regularized incomplete gamma and beta functions are scipy's compiled
ufuncs (``gammainc``, ``gammaincc``, ``betainc``).  The bound computations
need them in the log domain: the left tail of a noncentral chi-squared at
probability 2**(-n*R) and the area of a thin cap in high dimension can
underflow doubles.  Lanes whose value falls below ``_TINY`` are therefore
evaluated from the exact hypergeometric forms of the same functions
(DLMF 8.5.1 with 13.6 for P(a, x), DLMF 8.17.8 for I_x(a, b)), whose
prefactors are kept in logs.

All array-accepting helpers broadcast and give a float for scalar
input.  Hyperspherical areas and volumes are returned as natural
logs, so they stay finite in any dimension.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, betaln, gammainc, gammaincc, gammaln, hyp1f1, hyp2f1

from .logdomain import LOG_ZERO, logsumexp

__all__ = [
    "binary_entropy",
    "binary_entropy_nats",
    "inverse_binary_entropy",
    "reg_gamma_lower",
    "reg_gamma_upper",
    "log_reg_gamma_lower",
    "noncentral_chi2_log_cdf",
    "log_unit_sphere_area",
    "log_unit_ball_volume",
    "log_ball_volume",
    "log_cap_fraction",
    "log_cone_area",
]

_LN2 = math.log(2.0)
# Below this the compiled P(a, x) and I_x(a, b) lose relative accuracy to
# underflow; such lanes switch to their hypergeometric forms.
_TINY = 1e-280


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------

def binary_entropy(q: float) -> float:
    """H(q) in bits; endpoints return exactly 0."""
    return binary_entropy_nats(q) / _LN2


def binary_entropy_nats(q: float) -> float:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability out of range: {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q)


def inverse_binary_entropy(h: float) -> float:
    """The unique q in [0, 1/2] with H(q) = h bits."""
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"entropy out of range: {h}")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    # bisect until lo and hi are adjacent doubles: 1100 halvings reach the subnormals
    lo, hi = 0.0, 0.5
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return mid


# ---------------------------------------------------------------------------
# regularized incomplete gamma, linear and log domain
# ---------------------------------------------------------------------------

def _log_gamma_p(a, x) -> np.ndarray:
    """ln P(a, x) elementwise, relatively accurate arbitrarily deep in the left tail.

    Underflowing lanes use P(a, x) = x^a e^-x / Gamma(a+1) * 1F1(1; a+1; x).
    """
    x = np.asarray(x, dtype=float)
    p = gammainc(a, x)
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(p))
    deep = (p < _TINY) & (x > 0.0)
    if np.any(deep):
        ad = np.broadcast_to(a, out.shape)[deep]
        xd = np.broadcast_to(x, out.shape)[deep]
        out[deep] = ad * np.log(xd) - xd - gammaln(ad + 1.0) + np.log(hyp1f1(1.0, ad + 1.0, xd))
    return out


def _scalar_or_array(out: np.ndarray):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def reg_gamma_lower(a, x):
    """Regularized lower incomplete gamma P(a, x)."""
    return _scalar_or_array(gammainc(a, x))


def reg_gamma_upper(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    return _scalar_or_array(gammaincc(a, x))


def log_reg_gamma_lower(a, x):
    """ln P(a, x), relatively accurate arbitrarily deep in the left tail."""
    return _scalar_or_array(_log_gamma_p(a, x))


# ---------------------------------------------------------------------------
# noncentral chi-squared
# ---------------------------------------------------------------------------

# lanes x Poisson terms evaluated at once by noncentral_chi2_log_cdf
_NCX2_BLOCK = 1 << 20


def noncentral_chi2_log_cdf(n: int, lam, x):
    """ln of the noncentral chi-squared CDF, elementwise over lam and x
    (broadcast), accurate deep into the left tail; scalars give a float.

    Sums the Poisson mixture  sum_i Pois(i; lam/2) P(n/2 + i, x/2)  in logs
    over every i from 0 to 12 standard deviations (plus 60) above the
    Poisson mode.  Deep in the left tail the largest term can sit far below
    the mode, so no lower cut is made; beyond the upper cut both factors
    decrease, and the dropped terms sum to about e^-72 of the largest or less.
    The lanes share one lanes x terms array (in blocks of at most
    _NCX2_BLOCK entries), as long as its longest lane: the extra terms of a
    shorter lane lie beyond its cut, far below a double's resolution.
    """
    lam, x = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(x, dtype=float))
    if n < 1 or np.any(lam < 0) or np.any(x < 0):
        raise ValueError("need n >= 1, lambda >= 0, x >= 0")
    half = 0.5 * lam.ravel()
    xh = 0.5 * x.ravel()
    out = np.full(half.size, LOG_ZERO)
    last = (half + 12.0 * np.sqrt(half + 1.0) + 60.0).astype(int)
    live = np.flatnonzero(xh > 0.0)
    if live.size:
        step = max(1, _NCX2_BLOCK // (int(last[live].max()) + 1))
        for k in np.array_split(live, range(step, live.size, step)):
            i = np.arange(int(last[k].max()) + 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                lw = -half[k, None] + i * np.log(half[k, None]) - gammaln(i + 1.0)
            lw[:, 0] = -half[k]  # i ln(lam/2) is 0 at i = 0, also for lam = 0
            out[k] = logsumexp(lw + _log_gamma_p(0.5 * n + i, xh[k, None]), axis=1)
    return _scalar_or_array(out.reshape(lam.shape))


# ---------------------------------------------------------------------------
# hyperspherical areas and volumes
# ---------------------------------------------------------------------------

def log_unit_sphere_area(n: int) -> float:
    """ln of the surface area of the unit sphere in R^n, A_n = 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return _LN2 + 0.5 * n * math.log(math.pi) - float(gammaln(0.5 * n))


def log_unit_ball_volume(n: int) -> float:
    """ln of the volume of the unit ball in R^n, V_n = A_n / n."""
    return log_unit_sphere_area(n) - math.log(n)


def log_ball_volume(n: int, r):
    """ln(V_n r^n), the volume of the radius-r ball in R^n; -inf where r <= 0."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        out = log_unit_ball_volume(n) + n * np.log(np.maximum(r, 1e-300))
    return _scalar_or_array(np.where(r > 0, out, LOG_ZERO))


def log_reg_inc_beta(a: float, b: float, x):
    """ln I_x(a, b), the log of the regularized incomplete beta function,
    elementwise for x in [0, 1].

    Underflowing lanes (small x) use
    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * 2F1(a+b, 1; a+1; x).
    """
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    v = betainc(a, b, x)
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(v))
    deep = (x > 0.0) & (v < _TINY)
    if np.any(deep):
        xd = x[deep]
        out[deep] = (
            a * np.log(xd) + b * np.log1p(-xd) - math.log(a) - betaln(a, b)
            + np.log(hyp2f1(a + b, 1.0, a + 1.0, xd))
        )
    return _scalar_or_array(out)


def log_cap_fraction(n: int, cos) -> np.ndarray:
    """ln(Omega_n / A_n), the share of the unit sphere in R^n held by the cap
    of semiangle theta, given cos = cos(theta) in [-1, 1].

    The share is (1/2) I_{sin^2 theta}((n-1)/2, 1/2) for cos >= 0, and
    1 - share(-cos) for cos < 0.  By the beta reflection
    I_x(a, b) = 1 - I_{1-x}(b, a), both read (1/2)(1 -+ I_{cos^2}(1/2, (n-1)/2)).
    A cap below its mean size (cos^2 > 1/n, cos > 0) is taken from the
    sin^2 form with sin^2 = (1 - cos)(1 + cos), which keeps full relative
    accuracy for tiny caps; every other cap from the cos^2 form, where
    1 -+ I stays above about 1/3, so neither form cancels.  The share of
    the radius-r ball in R^n beyond a plane at signed distance r cos from
    its center is ``log_cap_fraction(n + 2, cos)`` (Li, "Concise formulas
    for the area and volume of a hyperspherical cap", 2011).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    c = np.asarray(cos, dtype=float)
    if np.any((c < -1.0) | (c > 1.0)):
        raise ValueError("cosine must lie in [-1, 1]")
    a = 0.5 * (n - 1)
    c2 = c * c
    obtuse = c < 0.0
    small = ~obtuse & (c2 > 1.0 / n)
    out = np.empty(c.shape)
    cs = c[small]
    out[small] = log_reg_inc_beta(a, 0.5, (1.0 - cs) * (1.0 + cs))
    q = betainc(0.5, a, c2[~small])
    out[~small] = np.log1p(np.where(obtuse[~small], q, -q))
    return _scalar_or_array(out - _LN2)


def log_cone_area(n: int, cos) -> np.ndarray:
    """ln of the area Omega_n(cos) of the cap of semiangle theta on the unit
    sphere in R^n, given cos = cos(theta) in [-1, 1]: ln A_n plus
    ``log_cap_fraction(n, cos)``."""
    return log_cap_fraction(n, cos) + log_unit_sphere_area(n)
