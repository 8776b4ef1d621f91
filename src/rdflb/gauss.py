"""Finite-blocklength distortion bounds for the Gaussian source.

Lower bound (the converse): the captured-mass union bound over grown
codeword balls, optimized as sup over the split point mu0 and inf over the
adversarial codeword norm rho.  It is evaluated on Gauss-Legendre panels
anchored at the kinks of its integrands, in batched passes over norm lanes:
a coarse norm grid, then zoom rounds around the argmin over rho (and, for a
bounded codebook, around the argmax split).  Cutting t at t_end, solving
where the integrand ends and taking the sup over a finite set of splits
err low, the valid side; the quadrature errs either way, within 2e-12
relative of a dense oracle that reads the same shell-mass kernel, where
tested (the kernel's own error is not in that figure); the inf over a
finite set of norms errs high and is the one step not certified
(``lower_bound_detail`` lists each step).  The cut t_end and the per-lane
work, the crossing t_x(rho) and A(., rho) on the default panels, depend on
(n, R, sigma2) and rho but never on rm, so they are solved once per norm
value and shared by every codebook class (``_Table``), the crossings off
the coarse grid from brackets seeded by the crossings on it; the norm grid,
the splits, the tail T beyond the split and the fine pass at the optimum
depend on rm and are solved per class (``_class_detail``).  A value does
not depend on which classes ran before it.

Upper bounds: one ordered-statistics integral, E[min(|x|^2, r(x)^2)]/n
plus an eps term, for both codebook classes.  The covering radius r(x) is
where a random codeword lands within r(x) of the source word x with the
probability budget ln(1/eps)/(Q-2); the classes differ only in the codeword
law behind it, N(0, (sigma2 - D) I_n) (a noncentral chi-squared distance)
for an unbounded codebook and that law conditioned on |y| <= rm for a
bounded one.  A radius is solved only at the source nodes where it enters
the min, those whose cover gap at radius |x| is >= 0; at the others
r(x) > |x|, and the node takes |x|^2 exactly.  Every radius is solved to
the side where the bound stays valid.

Everything multiplied by the codebook size Q = 2**(n R) runs in the log
domain; Q*K products are clamped at 1 before entering integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import gammaln

from .geometry import log_prob_intersect_batch, log_shell_mass_batch, log_vol_diff_vec
from .logdomain import LOG_ZERO, log_diff
from .quadrature import bracket_solve, gl_nodes, gl_panels, gl_partial, gl_rule
from .special import (
    log_ball_volume,
    log_reg_gamma_lower,
    log_unit_ball_volume,
    noncentral_chi2_log_cdf,
    reg_gamma_lower,
    reg_gamma_upper,
)

__all__ = [
    "GaussBoundInput",
    "GaussUpperBound",
    "lower_bound",
    "lower_bound_detail",
    "upper_bound_unbounded",
    "upper_bound_bounded",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GaussBoundInput:
    """Shared parameters for the Gaussian bounds.

    rm is the codeword norm cap (None means unbounded codebook); eps and
    delta are the ordered-statistics slack and the source-ball margin.
    """

    n: int
    rate: float
    sigma2: float = 1.0
    rm: float | None = None
    eps: float = 0.005
    delta: float = 0.5

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.rate <= 0 or self.sigma2 <= 0:
            raise ValueError("rate and sigma2 must be > 0")
        if self.rm is not None and self.rm <= 0:
            raise ValueError(f"rm must be > 0, got {self.rm}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")

    @property
    def dstar(self) -> float:
        return self.sigma2 * 2.0 ** (-2.0 * self.rate)

    @property
    def scale(self) -> float:
        """Center scaling sigma2 / (sigma2 - D) of the codeword balls."""
        return self.sigma2 / (self.sigma2 - self.dstar)

    def radius_sq(self, t, rho):
        """R(t, rho): squared radius of the ball captured by a norm-rho codeword."""
        d = self.dstar
        s2 = self.sigma2
        return s2 * d * np.asarray(rho) ** 2 / (s2 - d) ** 2 + 2.0 * d * s2 * t / (s2 - d)

    @property
    def log_q(self) -> float:
        return self.n * self.rate * _LN2


@dataclass(frozen=True)
class GaussUpperBound:
    value: float
    degenerate: bool = False


# ---------------------------------------------------------------------------
# pointwise pieces of the lower bound
# ---------------------------------------------------------------------------

def _log_k_excess(inp: GaussBoundInput, rho, t) -> np.ndarray:
    """ln P(C_j(t) \\ C0(t)) elementwise over codeword norms rho and t; -inf at rho = 0."""
    t, rho = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(rho, dtype=float))
    out = np.full(t.shape, LOG_ZERO)
    pos = rho > 0.0
    if pos.any():
        tp, rp = t[pos], rho[pos]
        r0 = np.sqrt(inp.radius_sq(tp, 0.0))
        r1 = np.sqrt(inp.radius_sq(tp, rp))
        c1 = inp.scale * rp
        out[pos] = log_shell_mass_batch(inp.n, r0, c1 + r1, c1, r1, inp.sigma2)
    return out


def _one_minus_k0(inp: GaussBoundInput, t) -> np.ndarray:
    return reg_gamma_upper(0.5 * inp.n, 0.5 * inp.radius_sq(np.asarray(t, dtype=float), 0.0) / inp.sigma2)


def _touch(inp: GaussBoundInput, rho) -> np.ndarray:
    """t at which C_j(t) of a norm-rho codeword first meets C0(t), r0 + r1 = c1.

    Before it K_excess is a whole ball; the lens that starts there grows like
    (t - t_touch)^((n+1)/2), a kink in every integrand that holds it."""
    s2, d = inp.sigma2, inp.dstar
    return np.asarray(rho, dtype=float) ** 2 * (s2 - d) / (8.0 * d * s2)


def _log_gamma_radii(inp: GaussBoundInput, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln r_n(t), the radius of a ball with the volume of C0 and Q codeword
    excesses, and ln(c1 + r1(t)), the reach of the rm codeword's ball; the
    bounded codebook's volume cap has radius r_E = min(r_n, c1 + r1)."""
    rm = inp.rm
    n = inp.n
    r0 = np.sqrt(inp.radius_sq(t, 0.0))
    r1 = np.sqrt(inp.radius_sq(t, rm))
    c1 = inp.scale * rm
    log_vdiff = log_vol_diff_vec(n, r0, c1, r1)
    log_vtot = np.logaddexp(log_ball_volume(n, r0), inp.log_q + log_vdiff)
    return (log_vtot - log_unit_ball_volume(n)) / n, np.log(c1 + r1)


def _cap_kinks(inp: GaussBoundInput, probe: np.ndarray) -> np.ndarray:
    """The t between probe points where r_n crosses c1 + r1, a kink of r_E."""
    def gap(t):
        log_rn, log_reach = _log_gamma_radii(inp, t)
        return log_rn - log_reach

    g = gap(probe)
    up = np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))
    down = np.flatnonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))
    i = np.concatenate([up, down])
    if not i.size:
        return np.empty(0)
    sign = np.where(np.arange(i.size) < up.size, 1.0, -1.0)
    return bracket_solve(lambda t, k: sign[k] * gap(t), probe[i], probe[i + 1], sign * g[i], sign * g[i + 1])


def _one_minus_gamma(inp: GaussBoundInput, t: np.ndarray) -> np.ndarray:
    return reg_gamma_upper(0.5 * inp.n, 0.5 * np.exp(2.0 * np.minimum(*_log_gamma_radii(inp, t))) / inp.sigma2)


# ---------------------------------------------------------------------------
# the converse: kink-anchored Gauss-Legendre panels, batched over norm lanes
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes per panel, and equal panels per stretch between the
# anchors of a lane (its touch point, and grading points 4^k that resolve the
# unit scale of 1 - e^-t near t = 0) and of the tail (the coarse splits and
# the kinks of 1 - Gamma).  The final optimum gets twice the panels.
_NODES = 8
_PANELS = 1
_TAIL_PANELS = 2
_GRADING = 4.0 ** np.arange(12)
# coarse norm grid, in units of the typical codeword norm sqrt(n (sigma2 - D))
_RHO_GRID = np.concatenate([np.linspace(0.0, 2.0, 21), [3.0, 5.0, 10.0]])
# coarse split grid of the bounded class: geometric from 1e-4 t_end to t_end
_SPLITS = 32
# zoom rounds, and the norms and splits each round adds
_ROUNDS = 7
_ROUND_RHO = 6
_ROUND_SPLITS = 8


class _Panels:
    """Gauss-Legendre sums over the panels of a batch of lanes, readable at any point.

    ``at(s)`` is, per lane and per s, the integral from the lane's first edge
    to s: the panel sums below s, plus ``gl_partial`` on the node values of
    the panel that holds s.  It is the plain rule's sum at every edge, and
    the lane's total at or beyond its last edge.
    """

    def __init__(self, edges: list[np.ndarray], vals: np.ndarray):
        self.edges = edges
        self.vals = vals
        counts = np.array([e.size - 1 for e in edges])
        self.first = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self.lo = np.concatenate([e[:-1] for e in edges])
        self.half = 0.5 * (np.concatenate([e[1:] for e in edges]) - self.lo)
        seg = self.half * (vals @ gl_nodes(vals.shape[1])[1])
        below = np.cumsum(seg) - seg
        self.below = below - np.repeat(below[self.first], counts)
        # the lanes' edges, padded with +inf to one row each
        self.pad = np.full((counts.size, counts.max() + 1), np.inf)
        self.pad[np.arange(counts.max() + 1) <= counts[:, None]] = np.concatenate(edges)
        self.panels = counts[:, None]
        self.last = self.pad[np.arange(counts.size), counts][:, None]

    def at(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        # a count of the edges <= s is searchsorted's right side
        count = (self.pad[:, None, :] <= s[:, None]).sum(axis=-1)
        p = self.first[:, None] + np.clip(count - 1, 0, self.panels - 1)
        sc = np.clip(s, self.pad[:, :1], self.last)
        half = self.half[p]
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(half > 0.0, (sc - self.lo[p]) / half - 1.0, 1.0)
        w = gl_partial(y.ravel(), self.vals.shape[1]).reshape(*y.shape, -1)
        return self.below[p] + half * (w * self.vals[p]).sum(axis=-1)


def _panel_edges(lo: float, hi: float, anchors, panels: int, cuts=()) -> np.ndarray:
    """Edges on [lo, hi]: each stretch between the anchors inside it split
    into `panels` equal panels, plus the cuts inside."""
    if hi <= lo:
        return np.array([lo, lo])  # one empty panel: the lane integrates to 0
    pts = np.unique(np.concatenate([[lo, hi], np.asarray(anchors, dtype=float)]))
    pts = pts[(pts >= lo) & (pts <= hi)]
    grid = (pts[:-1, None] + np.diff(pts)[:, None] * np.arange(panels) / panels).ravel()
    cuts = np.asarray(cuts, dtype=float)
    return np.unique(np.concatenate([grid, [hi], cuts[(cuts > lo) & (cuts < hi)]]))


def _captured_density(inp: GaussBoundInput, rho, t) -> np.ndarray:
    """f(t, rho) (1 - e^-t), f = max(0, 1 - K0 - min(1, Q K_excess)): the integrand of Delta in t."""
    qk = np.exp(np.minimum(inp.log_q + _log_k_excess(inp, rho, t), 0.0))
    return np.maximum(0.0, _one_minus_k0(inp, t) - qk) * -np.expm1(-t)


def _crossing(inp: GaussBoundInput, rho: np.ndarray, t_end: float, lo=None, hi=None) -> np.ndarray:
    """t_x per lane, where ln Q + ln K_excess(t, rho) = ln(1 - K0(t)).

    The gap ln Q K_excess - ln(1 - K0) rises with t wherever it was
    probed, so f > 0 exactly below t_x; were it to fall again, the part of
    f beyond t_x would be dropped, which errs low.  Every lane comes back
    on its f = 0 side.  Each lane is solved on its bracket [lo, hi]
    (default [0, t_end]), whose two ends go through one call of the gap,
    which also checks it: a lane with f = 0 from lo = 0 on gets 0, a lane
    whose gap stays negative up to hi = t_end gets t_end (the rho = 0 lane,
    whose gap is -inf), and a lane whose narrower bracket misses the sign
    change is solved again on [0, t_end].
    """
    lo = np.zeros(rho.shape) if lo is None else lo
    hi = np.full(rho.shape, t_end) if hi is None else hi
    tx = np.full(rho.shape, t_end)
    lanes = np.arange(rho.size)

    def gap(t, k):
        with np.errstate(divide="ignore"):
            return inp.log_q + _log_k_excess(inp, rho[lanes[k]], t) - np.log(_one_minus_k0(inp, t))

    ends = gap(np.concatenate([lo, hi]), np.tile(lanes, 2))
    g_a, g_b = np.split(ends, 2)
    tx[(g_a >= 0.0) & (lo == 0.0)] = 0.0
    miss = ((g_a >= 0.0) & (lo > 0.0)) | ((g_b < 0.0) & (hi < t_end))
    if miss.any():
        tx[miss] = _crossing(inp, rho[miss], t_end)
    lanes = np.flatnonzero((g_a < 0.0) & (g_b >= 0.0))
    if lanes.size:
        tx[lanes] = bracket_solve(gap, lo[lanes], hi[lanes], g_a[lanes], g_b[lanes])
    return tx


def _lane_panels(inp: GaussBoundInput, rho: np.ndarray, tx: np.ndarray, panels=_PANELS, cuts=()) -> _Panels:
    """A(., rho) per lane as panels on [0, t_x], whose last edge is t_x; the
    nodes of all lanes go through the shell masses in one call, which takes
    its rows in blocks (rows do not affect each other)."""
    edges = [_panel_edges(0.0, x, np.append(_GRADING, _touch(inp, r)), panels, cuts) for r, x in zip(rho, tx)]
    counts = np.array([e.size - 1 for e in edges])
    t, _ = gl_rule(np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges]), _NODES)
    return _Panels(edges, _captured_density(inp, np.repeat(rho, counts)[:, None], t))


class _Table:
    """The converse of (n, R, sigma2): the cut t_end and the per-lane work,
    which never depend on rm, and the solved converse of each codebook class.

    t_end puts the origin ball's squared radius, over sigma2, at chi2_n's
    point n + 12 sqrt(2n) + 60.  That is beyond n + 2 sqrt(30 n) + 60, whose
    tail Laurent & Massart (2000, Lemma 1, x = 30) bound by e^-30, so
    1 - K0(t_end) <= e^-30, about 9.4e-14, for every n.  Every class shares
    it: its 1 - Gamma is at most 1 - K0, since r_E >= r0 (r_n's ball holds
    C0's volume, and c1 + r1 >= r1 >= r0).

    ``grid`` is the coarse norm grid, rho_typ _RHO_GRID with rho_typ =
    sqrt(n (sigma2 - D)) the typical codeword norm; its positive norms are
    the reference norms, whose crossings ``reference`` solves once, each on
    [0, t_end].  ``crossings`` reads them there and seeds every other lane
    from them.

    Per norm value it keeps A(., rho) on the default panels without cuts,
    solved once for every codebook class.  The lane's last edge is its
    crossing t_x, so the lane also holds t_x.  ``lanes`` rebuilds the
    panels in the order asked for: ``_Panels.below`` is a running sum
    across lanes, so the order sets its last bits.  ``detail(rm)`` keeps
    each class's ``_class_detail``.
    """

    def __init__(self, inp: GaussBoundInput):
        self.inp = inp
        n, s2, d = inp.n, inp.sigma2, inp.dstar
        self.t_end = (s2 - d) / (2.0 * d) * (n + 12.0 * math.sqrt(2.0 * n) + 60.0)
        self.grid = math.sqrt(n * (s2 - d)) * _RHO_GRID
        self._lanes: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._details: dict[float | None, tuple[float, float, float, float]] = {}

    @cached_property
    def reference(self) -> np.ndarray:
        """t_x at the reference norms ``grid[1:]``, each solved on [0, t_end]."""
        return _crossing(self.inp, self.grid[1:], self.t_end)

    def crossings(self, rho: np.ndarray) -> np.ndarray:
        """t_x per lane.  A reference norm reads its table value.  A norm
        between two reference norms is solved on a seeded bracket: as wide
        as the difference of their crossings, centred where the line through
        them meets rho, and clipped to [0, t_end].  A norm outside the
        reference norms, or whose seed misses its crossing (``_crossing``
        checks it), is solved on [0, t_end].  The bracket depends on
        (n, R, sigma2) and rho alone, so no value depends on which lanes
        were laid out before it."""
        ref, ref_tx = self.grid[1:], self.reference
        i = np.searchsorted(ref, rho)
        known = ref[np.minimum(i, ref.size - 1)] == rho
        tx = np.empty(rho.shape)
        tx[known] = ref_tx[i[known]]
        rest = ~known
        if rest.any():
            r, j = rho[rest], np.clip(i[rest], 1, ref.size - 1)
            a, b = ref_tx[j - 1], ref_tx[j]
            mid = a + (r - ref[j - 1]) / (ref[j] - ref[j - 1]) * (b - a)
            half = np.where((r > ref[0]) & (r < ref[-1]), 0.5 * np.abs(b - a), np.inf)
            lo, hi = np.maximum(mid - half, 0.0), np.minimum(mid + half, self.t_end)
            tx[rest] = _crossing(self.inp, r, self.t_end, lo, hi)
        return tx

    def lanes(self, rho: np.ndarray) -> _Panels:
        """A(., rho) per lane; the norms not seen before are laid out in one batch."""
        new = np.array([r for r in dict.fromkeys(rho.tolist()) if r not in self._lanes])
        if new.size:
            p = _lane_panels(self.inp, new, self.crossings(new))
            split = np.cumsum([e.size - 1 for e in p.edges])[:-1]
            self._lanes.update(zip(new.tolist(), zip(p.edges, np.split(p.vals, split))))
        edges, vals = zip(*(self._lanes[r] for r in rho.tolist()))
        return _Panels(list(edges), np.concatenate(vals))

    def detail(self, rm: float | None) -> tuple[float, float, float, float]:
        """``lower_bound_detail`` of the class with norm cap rm, solved once."""
        if rm not in self._details:
            self._details[rm] = _class_detail(self, replace(self.inp, rm=rm))
        return self._details[rm]


@lru_cache(maxsize=16)
def _table(n: int, rate: float, sigma2: float) -> _Table:
    return _Table(GaussBoundInput(n, rate, sigma2))


def _tail_anchors(inp: GaussBoundInput, splits: np.ndarray) -> np.ndarray:
    """The kinks of 1 - Gamma, the touch point of the rm codeword and the
    crossings of r_n and c1 + r1, with the coarse splits they are probed on."""
    return np.concatenate([splits, [_touch(inp, inp.rm)], _cap_kinks(inp, np.append(0.0, splits))])


def _tail(inp: GaussBoundInput, t_end: float, anchors: np.ndarray, panels: int, cuts=()) -> _Panels:
    """(1 - Gamma)(1 - e^-t) as panels on [0, t_end], anchored at ``_tail_anchors``."""
    edges = _panel_edges(0.0, t_end, anchors, panels, cuts)
    t, _ = gl_rule(edges[:-1], edges[1:], _NODES)
    return _Panels([edges], _one_minus_gamma(inp, t) * -np.expm1(-t))


def _tail_above(tail: _Panels | None, s):
    """T(s), the tail's integral from s to t_end; 0 for no tail (an unbounded codebook)."""
    if tail is None:
        return 0.0
    return tail.at(tail.edges[0][-1]) - tail.at(s)


def _class_detail(table: _Table, inp: GaussBoundInput) -> tuple[float, float, float, float]:
    """``lower_bound_detail`` of one codebook class (n, R, sigma2, rm).

    It solves what depends on rm: the coarse norm grid (the table's
    ``grid``, capped at rm), the splits, the tail T with its anchors, the
    zoom rounds and the fine pass at the optimum.  t_end and the per-lane
    work (t_x is the last edge of a lane) come from ``table``, which every
    class of (n, R, sigma2) reads.  The objective is Delta(s, rho) =
    A(s, rho) + T(s) for every lane and split, in t.
    """
    t_end, grid = table.t_end, table.grid
    r_cap = inp.rm if inp.rm is not None else grid[-1]
    rho = np.append(grid[grid < r_cap], r_cap)
    splits, tail = np.array([t_end]), None
    if inp.rm is not None:
        splits = np.geomspace(1e-4 * t_end, t_end, _SPLITS)
        anchors = _tail_anchors(inp, splits)
        tail = _tail(inp, t_end, anchors, _TAIL_PANELS)
    for k in range(_ROUNDS + 1):
        v = table.lanes(rho).at(splits) + _tail_above(tail, splits)
        j = int(np.argmax(v.min(axis=0)))
        best = int(np.argmin(v[:, j]))
        if k == _ROUNDS:
            break
        rho = np.concatenate([rho, _zoom(rho, best, _ROUND_RHO)])
        if tail is not None:
            splits = np.union1d(splits, _zoom(splits, j, _ROUND_SPLITS))
    s, r = float(splits[j]), float(rho[best])
    # the optimum again, on twice the panels and with the split as an
    # edge, up to the crossing t_x, the last edge of its lane
    one = np.array([r])
    fine_tail = None if tail is None else _tail(inp, t_end, anchors, 2 * _TAIL_PANELS, [s])
    fine = _lane_panels(inp, one, table.lanes(one).last[:, 0], 2 * _PANELS, [s]).at(s) + _tail_above(fine_tail, s)
    best_val = max(min(float(v[best, j]), float(fine[0, 0])), 0.0)
    return inp.dstar * (1.0 + 2.0 * best_val / inp.n), best_val, s + math.expm1(-s), r


def _zoom(points: np.ndarray, best: int, m: int) -> np.ndarray:
    """m points spread evenly between the neighbours of points[best]."""
    srt = np.unique(points)
    i = int(np.searchsorted(srt, points[best]))
    return np.linspace(srt[max(i - 1, 0)], srt[min(i + 1, srt.size - 1)], m + 2)[1:-1]


def lower_bound_detail(inp: GaussBoundInput) -> tuple[float, float, float, float]:
    """(bound, sup-inf value, argmax mu0, argmin r), all plain floats.

    The value is sup over the split mu0 of inf over the codeword norm rho of
    Delta(mu0, rho) = A(mu0, rho) + T(mu0): A integrates f(t, rho) dmu up to
    the split, T integrates 1 - Gamma beyond it (dmu = (1 - e^-t) dt; T = 0
    for the unbounded class, whose only split is t_end).  t_end and A's
    lanes (the default panels per norm, each ending at its t_x) do not
    depend on rm and are shared by every class (``_Table``); the norm grid,
    the splits, T and the fine pass are the class's (``_class_detail``).
    The value does not depend on which classes ran before.  Each step, and
    the side it errs on:

    * t is cut at t_end, where the origin ball holds all but at most e^-30
      (about 9.4e-14) of the mass, and 1 - Gamma <= 1 - K0 (see
      ``_Table``): the dropped integrand is >= 0, so the cut errs low,
      the valid side.
    * Per norm lane, one ``bracket_solve`` finds t_x, past which f = 0 (see
      ``_crossing``), so A's panels cover f's whole support.  The lanes at
      the positive norms of the coarse grid, the reference norms, are
      solved once on [0, t_end].  Every other lane between two reference
      norms starts from a bracket seeded by their crossings (see
      ``_Table.crossings``); a lane outside them, or whose seed misses
      its crossing, is solved on [0, t_end].  Each lane still returns on
      its f = 0 side.
    * A and T are Gauss-Legendre sums on panels whose edges hold the kinks:
      t_x and the touch point of C_j and C0 for f; the rm codeword's touch
      point and the crossings of r_n and c1 + r1 for 1 - Gamma.  A split
      inside a panel is read from the polynomial through that panel's
      nodes.  Either error can take either sign; against a dense oracle on
      the same shell-mass kernel the value agrees to 2e-12 relative.  That
      kernel's 16-node cap-shell panels are converged at n = 16 and 64 but
      read 8.7e-10 relative high at n = 256 and 2.8e-7 at n = 1024.  The
      optimum is re-evaluated on twice the panels, with the split as an
      edge, and the smaller value is kept.
    * The sup over the split runs over a finite set (geometric, then zoomed
      around the argmax): it errs low, the valid side.
    * The inf over rho runs over a coarse grid and ``_ROUNDS`` zoom rounds
      around the argmin: a finite set errs high, the invalid side, by about
      the curvature in rho times the squared final spacing.  It is not
      certified.
    """
    # the table is keyed on (n, R, sigma2) and its details on rm: eps and delta do not enter the converse
    return _table(inp.n, inp.rate, inp.sigma2).detail(inp.rm)


def lower_bound(inp: GaussBoundInput) -> float:
    """Converse bound on the distortion of any size-2**(nR) codebook."""
    return lower_bound_detail(inp)[0]


# ---------------------------------------------------------------------------
# upper bounds (ordered statistics)
# ---------------------------------------------------------------------------

# points of the source window at which the OS bound probes its kink
_KINK_PROBE = 17


def _source_window(n: int, sigma2: float, x_hi: float):
    spread = sigma2 * math.sqrt(2.0 * n + 60.0)
    lo = max(1e-9, n * sigma2 - 15.0 * spread)
    hi = min(x_hi, n * sigma2 + 15.0 * spread)
    return lo, hi


def _log_budget(inp: GaussBoundInput) -> float:
    """ln of the ordered-statistics probability budget ln(1/eps)/(Q-2)."""
    lq = inp.log_q
    if lq < math.log(3.0):
        raise ValueError("codebook size must be at least 3")
    return math.log(math.log(1.0 / inp.eps)) - log_diff(lq, _LN2)


def _os_bound(inp: GaussBoundInput, log_cover, floor_sq, eps_term: float) -> GaussUpperBound:
    """E[min(|x|^2, r(x)^2)]/n + eps_term, the ordered-statistics bound of
    either codebook class.

    r(x), the covering radius of a source word of squared norm x, is the
    smallest t with ``log_cover(x, t^2)`` = ln P(|Y - x|^2 <= t^2) >= ln p0
    for a codeword Y of the class's law.  The gap log_cover - ln p0 rises
    in s = t^2; it is evaluated once at s = x on every node.  Where it is
    negative, r(x) > |x| and the integrand is |x|^2 exactly (the largest
    the min can be, so a skip could only err high): no radius is solved.
    The other nodes are solved in s by one ``bracket_solve`` on
    [``floor_sq(x)``, x], the gap at x their known high end.  No low end
    is evaluated: the point s = 0, or for a bounded codebook the ball of
    radius |x| - rm that touches the rm-ball from outside, has probability
    zero, so its gap is passed as -inf, and the solver's first step
    bisects (at radius |x|/sqrt(2) from a zero floor, nearer the root than
    |x|/2 would be).  Whatever the low end, the solver returns only points
    where it measured a gap >= 0, so every radius is at least the covering
    radius and the bound errs high, the valid side.  So does the mass
    outside the source window, bounded by its |x|^2/n moment.

    The integrand kinks where r(x) = |x|.  The balls B(|x| u, |x|) all
    touch the origin and are nested in |x|, so under either (rotation
    invariant) law the gap at s = x rises in x and crosses zero at most
    once.  One call evaluates it at ``_KINK_PROBE`` evenly spaced points of
    the window, its two ends among them; when the sign changes in the
    window, one bracket solve inside the probe interval where it does
    finds the kink, and it becomes a panel edge.  Otherwise the window is
    cut at its middle.
    """
    n, s2, d, eps, delta = inp.n, inp.sigma2, inp.dstar, inp.eps, inp.delta
    log_p0 = _log_budget(inp)
    if log_p0 >= 0.0:
        # budget exceeds 1: threshold undefined, fall back to the pin codeword
        return GaussUpperBound(s2 + delta + eps * (2.0 * s2 - d), degenerate=True)
    lo, hi = _source_window(n, s2, n * (s2 + delta))

    def kink_gap(x, _lanes):
        return log_cover(x, x) - log_p0

    edges = np.array([lo, 0.5 * (lo + hi), hi])
    probe = np.linspace(lo, hi, _KINK_PROBE)
    g = kink_gap(probe, None)
    if g[0] < 0.0 <= g[-1]:
        i = int(np.argmax((g[:-1] < 0.0) & (g[1:] >= 0.0)))
        kink = float(bracket_solve(kink_gap, probe[i], probe[i + 1], g[i], g[i + 1])[0])
        edges = np.unique([lo, kink, 0.5 * (kink + hi), hi])
    nodes, wgt = gl_panels(edges, 32)
    at_norm = kink_gap(nodes, None)
    solve = np.flatnonzero(at_norm >= 0.0)
    x = nodes[solve]

    def gap(s, k):
        return log_cover(x[k], s) - log_p0

    radius_sq = nodes.copy()
    radius_sq[solve] = bracket_solve(gap, floor_sq(x), x, np.full(x.size, LOG_ZERO), at_norm[solve])
    a = 0.5 * n  # |x|^2 / sigma2 is chi-squared with n degrees
    log_pdf = (a - 1.0) * np.log(nodes) - 0.5 * nodes / s2 - a * math.log(2.0 * s2) - gammaln(a)
    integrand = np.exp(log_pdf) * np.minimum(nodes, radius_sq) / n
    main = float((integrand * wgt).sum())

    # outside the window |x|^2/n bounds the integrand: below it by lo/n, above
    # it by the moment E[|x|^2/n; |x|^2 > hi] = sigma2 (1 - CDF_chi2(n+2)(hi/sigma2))
    below = float(reg_gamma_lower(0.5 * n, 0.5 * lo / s2)) * lo / n
    above = s2 * float(reg_gamma_upper(0.5 * (n + 2), 0.5 * hi / s2))
    return GaussUpperBound(main + below + above + eps_term)


def upper_bound_unbounded(inp: GaussBoundInput) -> GaussUpperBound:
    """Achievability bound for an unbounded random codebook.

    One codeword is pinned at the origin; the others are drawn from
    N(0, (sigma2 - D) I_n), so |Y - x|^2 / (sigma2 - D) is noncentral
    chi-squared with noncentrality |x|^2 / (sigma2 - D).
    """
    n, mv = inp.n, inp.sigma2 - inp.dstar

    def log_cover(x, s):
        return noncentral_chi2_log_cdf(n, x / mv, s / mv)

    return _os_bound(inp, log_cover, np.zeros_like, inp.eps * (2.0 * inp.sigma2 - inp.dstar))


def upper_bound_bounded(inp: GaussBoundInput) -> GaussUpperBound:
    """Achievability bound when codewords are confined to ||y|| <= rm,
    drawn from the truncated optimal marginal N(0, (sigma2 - D) I_n)
    conditioned on the rm-ball, whose mass is C_m.
    """
    if inp.rm is None:
        raise ValueError("bounded upper bound needs rm")
    n, s2, eps, rm = inp.n, inp.sigma2, inp.eps, inp.rm
    mv = s2 - inp.dstar
    log_cm = float(log_reg_gamma_lower(0.5 * n, 0.5 * rm**2 / mv))

    def log_cover(x, s):
        return log_prob_intersect_batch(n, rm, np.sqrt(x), np.sqrt(s), mv) - log_cm

    def floor_sq(x):
        # the ball around x that touches the rm-ball from outside
        return np.maximum(np.sqrt(x) - rm, 0.0) ** 2

    eps_term = eps * s2 + eps * math.exp(-log_cm) * mv * float(reg_gamma_lower(0.5 * (n + 2), 0.5 * rm**2 / mv))
    return _os_bound(inp, log_cover, floor_sq, eps_term)
