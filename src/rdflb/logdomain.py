"""Log-domain arithmetic for quantities that scale like 2**(+-n).

Everything that can overflow or underflow a double (codebook sizes
2**(n*R), binomial masses, product pmfs) is carried as its natural
logarithm.  Exact zero is encoded as -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import gammaln

__all__ = ["LogReal", "LOG_ZERO", "log_sum", "log_diff", "log_binomial", "log_binomial_row"]

LOG_ZERO = float("-inf")


@dataclass(frozen=True, order=True)
class LogReal:
    """A nonnegative real number stored as its natural logarithm.

    Ordering and equality compare the underlying logs, which is the same
    as comparing the represented values.
    """

    log_value: float

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_linear(x: float) -> "LogReal":
        if x < 0:
            raise ValueError(f"LogReal represents nonnegative reals, got {x}")
        return LogReal(math.log(x) if x > 0 else LOG_ZERO)

    @staticmethod
    def from_log(log_value: float) -> "LogReal":
        if math.isnan(log_value):
            raise ValueError("NaN log value")
        return LogReal(float(log_value))

    @staticmethod
    def zero() -> "LogReal":
        return LogReal(LOG_ZERO)

    @staticmethod
    def one() -> "LogReal":
        return LogReal(0.0)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.log_value == LOG_ZERO

    def to_linear(self) -> float:
        """The represented value as a double (0.0 or inf on under/overflow)."""
        if self.is_zero:
            return 0.0
        return math.exp(self.log_value)

    def __float__(self) -> float:
        return self.to_linear()

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "LogReal") -> "LogReal":
        if self.is_zero or other.is_zero:
            return LogReal(LOG_ZERO)
        return LogReal(self.log_value + other.log_value)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        if other.is_zero:
            raise ZeroDivisionError("LogReal division by exact zero")
        if self.is_zero:
            return LogReal(LOG_ZERO)
        return LogReal(self.log_value - other.log_value)

    def __pow__(self, exponent: float) -> "LogReal":
        if self.is_zero:
            if exponent <= 0:
                raise ValueError("0**e undefined for e <= 0")
            return LogReal(LOG_ZERO)
        return LogReal(self.log_value * exponent)

    def __add__(self, other: "LogReal") -> "LogReal":
        return LogReal(float(np.logaddexp(self.log_value, other.log_value)))

    def __sub__(self, other: "LogReal") -> "LogReal":
        """Exact-ish difference; other must not exceed self."""
        return LogReal(log_diff(self.log_value, other.log_value))


def log_sum(terms: Iterable[LogReal]) -> LogReal:
    """Log-domain sum of a sequence of LogReal; empty sum is exact zero.

    Uses a single max-shifted reduction, so the result is independent of
    the input order up to roundoff (~1e-12 relative over ~600 orders of
    magnitude).
    """
    logs = np.array([t.log_value for t in terms], dtype=float)
    if logs.size == 0:
        return LogReal(LOG_ZERO)
    return LogReal(logsumexp(logs))


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


def log_diff(log_a: float, log_b: float) -> float:
    """log(exp(log_a) - exp(log_b)) for log_a >= log_b.

    A tiny negative difference (roundoff) is clamped to exact zero.
    """
    if log_b == LOG_ZERO:
        return log_a
    if log_a == LOG_ZERO:
        raise ValueError("negative difference: 0 - positive")
    d = log_b - log_a
    if d > 1e-12:
        raise ValueError(f"negative difference in log_diff: log_a={log_a}, log_b={log_b}")
    if d >= 0.0:
        return LOG_ZERO
    return log_a + math.log1p(-math.exp(d))


def log_binomial(n: int, k: int) -> LogReal:
    """ln C(n, k) via log-gamma; exact to ~1e-13 relative up to n ~ 1e6."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial coefficient needs 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return LogReal(0.0)
    return LogReal(float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)))


def log_binomial_row(m: int) -> np.ndarray:
    """ln C(m, j) for j = 0..m; each entry equals ``log_binomial(m, j)``."""
    g = gammaln(np.arange(1, m + 2))  # g[j] = ln j!
    return g[m] - g - g[::-1]
