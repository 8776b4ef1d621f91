"""Adaptive Simpson quadrature and bracketed root finding.

The integrands are smooth away from interval endpoints, which the callers
keep out of the integration range.  `find_root` bisects one scalar bracket;
`bracket_solve` solves many independent brackets at once, with one call of
the (vectorized) function per round over the lanes still running, and
returns every root on its f >= 0 side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Quadrature",
    "IntegrationResult",
    "integrate",
    "integrate_report",
    "find_root",
    "bracket_solve",
]


@dataclass(frozen=True)
class Quadrature:
    """Tolerances for the adaptive Simpson rule."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_depth: int = 40

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol < 0 or self.max_depth < 1:
            raise ValueError(f"invalid quadrature configuration: {self}")


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    converged: bool


DEFAULT_QUADRATURE = Quadrature()


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, m, b, fa, fm, fb, whole, cfg, depth, report):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(left + right))
    if abs(delta) <= 15.0 * tol or depth >= cfg.max_depth:
        if depth >= cfg.max_depth and abs(delta) > 15.0 * tol:
            report[0] = max(report[0], abs(delta) / 15.0)
        return left + right + delta / 15.0
    return _adaptive(f, a, lm, m, fa, flm, fm, left, cfg, depth + 1, report) + _adaptive(
        f, m, rm, b, fm, frm, fb, right, cfg, depth + 1, report
    )


def integrate_report(
    f: Callable[[float], float], a: float, b: float, cfg: Quadrature = DEFAULT_QUADRATURE
) -> IntegrationResult:
    """Adaptive Simpson estimate of the integral of f over [a, b].

    Exhausting max_depth does not raise; the achieved error estimate is
    reported instead so callers can decide.
    """
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return IntegrationResult(0.0, 0.0, True)
    report = [0.0]
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    value = _adaptive(f, a, m, b, fa, fm, fb, whole, cfg, 0, report)
    achieved = report[0]
    converged = achieved <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return IntegrationResult(value, achieved, converged)


def integrate(
    f: Callable[[float], float], a: float, b: float, cfg: Quadrature = DEFAULT_QUADRATURE
) -> float:
    return integrate_report(f, a, b, cfg).value


def find_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Bisection root of f on [lo, hi]; f(lo) and f(hi) must bracket zero.

    Deterministic, derivative free, capped at 200 iterations (bracket
    width shrinks by 2**-200, far below any tol a double can express).
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


# bracket_solve's stopping rules: residual window, relative bracket width, rounds
_FTOL = 1e-12
_RTOL = 1e-12
_MAX_ITER = 60


def bracket_solve(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Roots of increasing functions over independent lanes, each on its f >= 0 side.

    ``f(x, lanes)`` evaluates lane ``lanes[k]`` at ``x[k]`` and returns an
    array of the same length; ``lanes`` indexes ``lo`` and ``hi``.  Every
    lane needs f(lo) < 0 <= f(hi), or ValueError is raised; f(lo) may be
    -inf.

    Each round takes one Illinois (modified regula falsi) step per running
    lane, aimed at f = _FTOL/2, the middle of the accepted window.  A lane
    bisects instead while f(lo) is -inf or when the step would leave its
    bracket.  The bracket keeps f(lo) < 0 <= f(hi) throughout.  A lane stops
    once a step lands with f in [0, _FTOL), once hi - lo <= _RTOL max(|lo|, |hi|),
    or after _MAX_ITER rounds, and every lane returns its hi: a point where
    f was evaluated and found >= 0.  Deterministic; f is called once for
    the two bracket ends and once per round, with only the running lanes.
    """
    lo = np.array(lo, dtype=float).ravel()
    hi = np.array(hi, dtype=float).ravel()
    if lo.shape != hi.shape:
        raise ValueError(f"lo and hi differ in length: {lo.size} != {hi.size}")
    lanes = np.arange(lo.size)

    def call(x, idx):
        fx = np.asarray(f(x, idx), dtype=float)
        if fx.shape != x.shape:
            raise ValueError(f"f returned shape {fx.shape} for {x.size} points")
        if np.isnan(fx).any():
            raise ValueError(f"f is nan on lanes {idx[np.isnan(fx)]}")
        return fx

    ends = call(np.concatenate([lo, hi]), np.concatenate([lanes, lanes]))
    f_lo, f_hi = ends[: lo.size], ends[lo.size :]
    bad = ~((f_lo < 0.0) & (f_hi >= 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"no bracket on lane {k}: f({lo[k]})={f_lo[k]}, f({hi[k]})={f_hi[k]}"
        )
    aim = 0.5 * _FTOL
    g_lo, g_hi = f_lo - aim, f_hi - aim
    side = np.zeros(lo.size, dtype=np.int8)  # +1: hi moved last, -1: lo moved last
    run = (f_hi >= _FTOL) & (hi - lo > _RTOL * np.maximum(np.abs(lo), np.abs(hi)))
    for _ in range(_MAX_ITER):
        act = np.flatnonzero(run)
        if act.size == 0:
            break
        a, b, ga, gb = lo[act], hi[act], g_lo[act], g_hi[act]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = b - gb * (b - a) / (gb - ga)
        x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
        fx = call(x, act)
        up = fx >= 0.0
        moved_hi, moved_lo = act[up], act[~up]
        hi[moved_hi], g_hi[moved_hi] = x[up], fx[up] - aim
        lo[moved_lo], g_lo[moved_lo] = x[~up], fx[~up] - aim
        # Illinois: an end kept twice in a row has its value halved
        g_lo[moved_hi[side[moved_hi] == 1]] *= 0.5
        g_hi[moved_lo[side[moved_lo] == -1]] *= 0.5
        side[moved_hi], side[moved_lo] = 1, -1
        run[moved_hi[fx[up] < _FTOL]] = False
        run[act] &= hi[act] - lo[act] > _RTOL * np.maximum(np.abs(lo[act]), np.abs(hi[act]))
    return hi


def golden_min(f: Callable[[float], float], lo: float, hi: float, iters: int = 60) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [lo, hi]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a <= 1e-10 * max(1.0, abs(a) + abs(b)):
            break
    if fc < fd:
        return c, fc
    return d, fd
