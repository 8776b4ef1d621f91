"""Special functions: entropies, chi-squared family, hyperspherical areas.

The regularized incomplete gamma and beta functions are scipy's compiled
ufuncs (``gammainc``, ``gammaincc``, ``betainc``).  The bound computations
need them in the log domain: the left tail of a noncentral chi-squared at
probability 2**(-n*R) and the area of a thin cap in high dimension can
underflow doubles.  Lanes whose value falls below ``_TINY`` are therefore
evaluated from the exact hypergeometric forms of the same functions
(DLMF 8.5.1 with 13.6 for P(a, x), DLMF 8.17.8 for I_x(a, b)), whose
prefactors are kept in logs.

All array-accepting helpers broadcast; scalar wrappers keep the public
API simple.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, betaln, gammainc, gammaincc, gammaln, hyp1f1, hyp2f1

from .logdomain import LOG_ZERO, LogReal, logsumexp

__all__ = [
    "binary_entropy",
    "binary_entropy_nats",
    "inverse_binary_entropy",
    "reg_gamma_lower",
    "reg_gamma_upper",
    "log_reg_gamma_lower",
    "chi2_cdf",
    "noncentral_chi2_cdf",
    "noncentral_chi2_log_cdf",
    "noncentral_chi2_quantile",
    "exp_gap_inverse",
    "unit_sphere_area",
    "unit_ball_volume",
    "cone_area",
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
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def chi2_cdf(n: int, x: float) -> float:
    """CDF of the chi-squared distribution with n degrees of freedom."""
    if n < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {n}")
    if x < 0:
        raise ValueError(f"chi-squared argument must be >= 0, got {x}")
    return reg_gamma_lower(0.5 * n, 0.5 * x)


# ---------------------------------------------------------------------------
# noncentral chi-squared
# ---------------------------------------------------------------------------

def noncentral_chi2_log_cdf(n: int, lam: float, x: float) -> float:
    """ln of the noncentral chi-squared CDF, accurate deep into the left tail.

    Sums the Poisson mixture  sum_i Pois(i; lam/2) P(n/2 + i, x/2)  in logs
    over every i from 0 to 12 standard deviations (plus 60) above the
    Poisson mode.  Deep in the left tail the largest term can sit far below
    the mode, so no lower cut is made; beyond the upper cut both factors
    decrease, and the dropped terms sum to about e^-72 of the largest or less.
    """
    if n < 1 or lam < 0 or x < 0:
        raise ValueError("need n >= 1, lambda >= 0, x >= 0")
    if x == 0.0:
        return LOG_ZERO
    if lam == 0.0:
        return float(log_reg_gamma_lower(0.5 * n, 0.5 * x))
    half = 0.5 * lam
    i = np.arange(int(half + 12.0 * math.sqrt(half + 1.0) + 60.0) + 1)
    lw = -half + i * math.log(half) - gammaln(i + 1.0)
    return float(logsumexp(lw + _log_gamma_p(0.5 * n + i, 0.5 * x)))


def noncentral_chi2_cdf(n: int, lam: float, x: float) -> float:
    """CDF of the noncentral chi-squared distribution (Poisson mixture)."""
    val = math.exp(noncentral_chi2_log_cdf(n, lam, x))
    return min(val, 1.0)


def noncentral_chi2_quantile(n: int, lam: float, p0: float) -> float:
    """x such that the noncentral chi-squared CDF at x equals p0."""
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p0}")
    target = math.log(p0)
    hi = n + lam + 10.0 * math.sqrt(2.0 * n + 4.0 * lam) + 10.0
    while noncentral_chi2_log_cdf(n, lam, hi) < target:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if noncentral_chi2_log_cdf(n, lam, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# inverse of t -> t - 1 + exp(-t)
# ---------------------------------------------------------------------------

def exp_gap_inverse(mu: float) -> float:
    """The unique t >= 0 with t - 1 + exp(-t) = mu."""
    if mu < 0:
        raise ValueError(f"argument must be >= 0, got {mu}")
    return float(exp_gap_inverse_vec(np.asarray([mu]))[0])


def exp_gap_inverse_vec(mu: np.ndarray) -> np.ndarray:
    """Vectorized exp_gap_inverse (Newton; the map is convex increasing)."""
    mu = np.asarray(mu, dtype=float)
    t = np.where(mu < 1.0, np.sqrt(2.0 * mu), mu + 1.0)
    for _ in range(80):
        # f(t) = t + expm1(-t) - mu, f'(t) = -expm1(-t)
        f = t + np.expm1(-t) - mu
        fp = -np.expm1(-t)
        step = np.where(fp > 0, f / np.where(fp > 0, fp, 1.0), 0.0)
        step = np.clip(step, -1.0, t)  # keep t >= 0
        t = t - step
        if np.all(np.abs(f) <= 1e-13 * np.maximum(1.0, mu) + 1e-300):
            break
    return np.where(mu == 0.0, 0.0, t)


# ---------------------------------------------------------------------------
# hyperspherical areas and volumes
# ---------------------------------------------------------------------------

def unit_sphere_area(n: int) -> LogReal:
    """Surface area of the unit sphere in R^n, A_n = 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return LogReal.from_log(_LN2 + 0.5 * n * math.log(math.pi) - float(gammaln(0.5 * n)))


def unit_ball_volume(n: int) -> LogReal:
    """Volume of the unit ball in R^n, V_n = A_n / n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return LogReal.from_log(unit_sphere_area(n).log_value - math.log(n))


def _log_inc_beta(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """ln I_x(a, b) elementwise for x in [0, 1].

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
    return out


def log_reg_inc_beta(a: float, b: float, x) -> np.ndarray:
    """ln I_x(a, b), the log of the regularized incomplete beta function."""
    return _scalar_or_array(_log_inc_beta(a, b, x))


def log_cone_area(n: int, theta) -> np.ndarray:
    """ln of the cap area Omega_n(theta) on the unit sphere in R^n.

    Omega_n(theta) = (A_n / 2) I_{sin^2 theta}((n-1)/2, 1/2) for
    theta <= pi/2, and A_n - Omega_n(pi - theta) beyond.  By the beta
    reflection I_x(a, b) = 1 - I_{1-x}(b, a), both halves read
    (A_n / 2) (1 -+ I_{cos^2 theta}(1/2, (n-1)/2)).  A cap below its mean
    size (cos^2 theta > 1/n, theta < pi/2) is taken from the sin^2 form,
    which keeps full relative accuracy for tiny caps; every other cap from
    the cos^2 form, where 1 -+ I stays above about 1/3, so neither form
    cancels and neither loses accuracy to the rounding of sin^2 near 1.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    theta = np.asarray(theta, dtype=float)
    if np.any((theta < 0.0) | (theta > math.pi)):
        raise ValueError("semiangle must lie in [0, pi]")
    a = 0.5 * (n - 1)
    c2 = np.cos(theta) ** 2
    obtuse = theta > 0.5 * math.pi
    small = ~obtuse & (c2 > 1.0 / n)
    out = np.empty(theta.shape)
    out[small] = _log_inc_beta(a, 0.5, np.sin(theta[small]) ** 2)
    q = betainc(0.5, a, c2[~small])
    out[~small] = np.log1p(np.where(obtuse[~small], q, -q))
    return _scalar_or_array(unit_sphere_area(n).log_value - _LN2 + out)


def cone_area(n: int, theta: float) -> LogReal:
    """Cap area Omega_n(theta) as a LogReal; Omega_n(pi) = unit_sphere_area(n)."""
    return LogReal.from_log(float(log_cone_area(n, theta)))
