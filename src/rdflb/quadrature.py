"""Gauss-Legendre panels and bracketed root finding.

`gl_rule` lays a fixed Gauss-Legendre rule on each of a set of panels, and
`gl_panels` on each panel of a grid; the integrands are smooth inside the
panels, and the callers put their kinks on panel edges.  `gl_partial` reads
the integral up to any point inside a panel from the same node values.
`find_root` bisects one scalar bracket; `bracket_solve` solves many
independent brackets at once by Pegasus regula falsi steps, with one call
of the (vectorized) function per round over the lanes still running, and
returns every root on its f >= 0 side.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["gl_nodes", "gl_rule", "gl_partial", "gl_panels", "find_root", "bracket_solve"]


@lru_cache(maxsize=8)
def gl_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-point Gauss-Legendre nodes and weights on [-1, 1] (shared and read-only)."""
    x, w = np.polynomial.legendre.leggauss(k)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gl_rule(a: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, one row of k per panel, of a k-point Gauss-Legendre rule on each [a, b]."""
    x, w = gl_nodes(k)
    half = 0.5 * (np.asarray(b, dtype=float) - a)
    return a[:, None] + half[:, None] * (x + 1.0), half[:, None] * w


def gl_partial(y, k: int) -> np.ndarray:
    """Weights W, one row per y in [-1, 1], with W @ f(x) the integral from -1
    to y of the degree k-1 polynomial through f at the k Gauss-Legendre nodes.

    The interpolant has Legendre coefficients c_m = (2m+1)/2 sum_i w_i P_m(x_i) f_i
    (the k-point rule is exact for these products), and the integral of P_m
    from -1 to y is (P_{m+1}(y) - P_{m-1}(y)) / (2m+1), or y + 1 for m = 0.
    At y = 1 the row is the rule's weights.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    py = np.polynomial.legendre.legvander(y, k)
    m = np.arange(1, k)
    ints = np.concatenate([y[..., None] + 1.0, (py[..., 2:] - py[..., : k - 1]) / (2 * m + 1)], axis=-1)
    return ints @ _interpolant_coef(k)


@lru_cache(maxsize=8)
def _interpolant_coef(k: int) -> np.ndarray:
    """(2m+1)/2 w_i P_m(x_i), rows m, columns i: node values to Legendre
    coefficients (shared and read-only)."""
    x, w = gl_nodes(k)
    coef = (np.polynomial.legendre.legvander(x, k - 1) * w[:, None] * (np.arange(k) + 0.5)).T
    coef.flags.writeable = False
    return coef


def gl_panels(edges: np.ndarray, k: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a k-point Gauss-Legendre rule on each panel between edges."""
    nodes, wgt = gl_rule(edges[:-1], edges[1:], k)
    return nodes.ravel(), wgt.ravel()


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


def _pegasus(g_old: np.ndarray, g_new: np.ndarray) -> np.ndarray:
    """The Pegasus factor g_old / (g_old + g_new), in (0, 1) for two values of
    one sign; 1/2, the Illinois factor, where it is not (an infinite end)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        m = g_old / (g_old + g_new)
    return np.where((m > 0.0) & (m < 1.0), m, 0.5)


def bracket_solve(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, f_lo=None, f_hi=None) -> np.ndarray:
    """Roots of increasing functions over independent lanes, each on its f >= 0 side.

    ``f(x, lanes)`` evaluates lane ``lanes[k]`` at ``x[k]`` and returns an
    array of the same length; ``lanes`` indexes ``lo`` and ``hi``.  Every
    lane needs f(lo) < 0 <= f(hi), or ValueError is raised; f(lo) may be
    -inf.  A caller that has already evaluated f at both ends passes the
    values as ``f_lo`` and ``f_hi``, and f is not called there again.

    Each round takes one Pegasus step (modified regula falsi; Dowell and
    Jarratt, BIT 12, 1972) per running lane, aimed at f = _FTOL/2, the
    middle of the accepted window: when the same end is kept twice in a
    row, its value is scaled by g_old / (g_old + g_new) of the end that
    moved, where Illinois would halve it.  A lane bisects instead while
    f(lo) is -inf or when the step would leave its bracket.  The bracket
    keeps f(lo) < 0 <= f(hi) throughout.  A lane stops once a step lands
    with f in [0, _FTOL), once hi - lo <= _RTOL max(|lo|, |hi|), or after
    _MAX_ITER rounds, and every lane returns its hi: a point where f was
    evaluated and found >= 0.  Deterministic; f is called once for
    the two bracket ends (unless given) and once per round, with only the
    running lanes.
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

    if f_lo is None or f_hi is None:
        ends = call(np.concatenate([lo, hi]), np.concatenate([lanes, lanes]))
        f_lo, f_hi = ends[: lo.size], ends[lo.size :]
    else:
        f_lo = np.array(f_lo, dtype=float).ravel()
        f_hi = np.array(f_hi, dtype=float).ravel()
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
        g_new = fx - aim
        # Pegasus: an end kept twice in a row has its value scaled by
        # g_old / (g_old + g_new) of the end that moved
        again = side[act] == np.where(up, 1, -1)
        kept_lo, kept_hi = act[again & up], act[again & ~up]
        g_lo[kept_lo] *= _pegasus(g_hi[kept_lo], g_new[again & up])
        g_hi[kept_hi] *= _pegasus(g_lo[kept_hi], g_new[again & ~up])
        hi[moved_hi], g_hi[moved_hi] = x[up], g_new[up]
        lo[moved_lo], g_lo[moved_lo] = x[~up], g_new[~up]
        side[moved_hi], side[moved_lo] = 1, -1
        run[moved_hi[fx[up] < _FTOL]] = False
        run[act] &= hi[act] - lo[act] > _RTOL * np.maximum(np.abs(lo[act]), np.abs(hi[act]))
    return hi

