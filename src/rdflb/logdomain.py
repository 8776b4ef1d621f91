"""Log-domain arithmetic for quantities that scale like 2**(+-n).

Everything that can overflow or underflow a double (codebook sizes
2**(n*R), binomial masses, product pmfs) is carried as its natural
logarithm, in plain floats and arrays.  Exact zero is encoded as -inf.
This module holds the reductions over such logs (``logsumexp``,
``log_diff``) and the log binomial coefficients.  Every binomial row reads
one ln j! table, grown per process as the blocklength grows and read-only:
the bounds share it, and a caller that writes into it fails at once.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

__all__ = ["LOG_ZERO", "logsumexp", "log_diff", "log_binomial", "log_binomial_row"]

LOG_ZERO = float("-inf")
_LN2 = math.log(2.0)


def logsumexp(logs: np.ndarray, axis=None) -> np.ndarray | float:
    """Max-shifted log-sum-exp over an ndarray; -inf entries are exact zeros."""
    logs = np.asarray(logs, dtype=float)
    if logs.size == 0:
        if axis is not None:
            raise ValueError("empty reduction with an explicit axis")
        return LOG_ZERO
    m = np.max(logs, axis=axis, keepdims=True)
    m_safe = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(logs - m_safe), axis=axis, keepdims=True)) + m_safe
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def log_diff(log_a, log_b):
    """log(exp(log_a) - exp(log_b)) for log_a >= log_b, elementwise.

    The arguments broadcast; scalars give a float.  Where log_b is -inf the
    result is log_a.  A negative difference of up to 1e-12 in the logs
    (roundoff) is clamped to exact zero, and a larger one raises.  The
    factor log(1 - e^d), d = log_b - log_a < 0, takes log(-expm1(d)) for
    d > -ln 2 and log1p(-e^d) below, so it stays finite and accurate for
    arguments that differ in their last bits.
    """
    a = np.asarray(log_a, dtype=float)
    b = np.asarray(log_b, dtype=float)
    # where log_b alone is -inf, d = -inf and the factor is log1p(-0) = 0; where
    # both are, d is nan, which fmin takes to 0, and the factor ln 0 keeps -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        d = b - a
        if np.any(d > 1e-12):
            raise ValueError(f"negative difference in log_diff: log_b - log_a up to {np.nanmax(d)}")
        d = np.fmin(d, 0.0)
        out = a + np.where(d > -_LN2, np.log(-np.expm1(d)), np.log1p(-np.exp(d)))
    return float(out) if out.ndim == 0 else out


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) via log-gamma; exact to ~1e-13 relative up to n ~ 1e6."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial coefficient needs 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return 0.0
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


# ln j! for j < _LOG_FACT.size: grown by _log_factorials, never rebuilt, read-only
_LOG_FACT = np.empty(0)


def _log_factorials(m: int) -> np.ndarray:
    """ln j! for j = 0..m (shared and read-only).

    One table serves every blocklength: a larger m extends it with the new
    entries only (``gammaln`` works entry by entry, so they are the values a
    fresh table would hold), and a smaller one reads its prefix.
    """
    global _LOG_FACT
    if _LOG_FACT.size <= m:
        _LOG_FACT = np.concatenate([_LOG_FACT, gammaln(np.arange(_LOG_FACT.size + 1, m + 2))])
        _LOG_FACT.flags.writeable = False
    return _LOG_FACT[: m + 1]


def log_binomial_row(m: int) -> np.ndarray:
    """ln C(m, j) for j = 0..m; each entry equals ``log_binomial(m, j)``."""
    g = _log_factorials(m)
    return g[m] - g - g[::-1]
