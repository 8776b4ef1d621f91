"""Finite-blocklength distortion bounds for the Gaussian source.

Lower bound: the captured-mass union bound over grown codeword balls,
optimized as sup over the split point mu0 and inf over the adversarial
codeword norm r.  Upper bounds: ordered statistics with the nearest-
codeword radius from the (truncated) noncentral chi-squared law.

Everything multiplied by the codebook size Q = 2**(n R) runs in the log
domain; Q*K products are clamped at 1 before entering integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .geometry import log_prob_intersect_batch, log_shell_mass_batch, log_vol_diff_vec
from .logdomain import LOG_ZERO
from .quadrature import bracket_solve, gl_panels
from .special import (
    log_reg_gamma_lower,
    log_unit_ball_volume,
    noncentral_chi2_log_cdf,
    reg_gamma_lower,
    reg_gamma_upper,
)

__all__ = [
    "GaussBoundInput",
    "GaussUpperBound",
    "k0",
    "k_excess",
    "gamma_cap",
    "delta_hat",
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

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# pointwise pieces of the lower bound
# ---------------------------------------------------------------------------

def k0(t: float, inp: GaussBoundInput) -> float:
    """Gaussian mass of the origin ball C0(t)."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    return reg_gamma_lower(0.5 * inp.n, 0.5 * float(inp.radius_sq(t, 0.0)) / inp.sigma2)


def _log_k_excess_grid(inp: GaussBoundInput, rho: float, t: np.ndarray) -> np.ndarray:
    """ln P(C_j(t) \\ C0(t)) for codeword norm rho, vectorized over t."""
    if rho <= 0.0:
        return np.full(t.shape, LOG_ZERO)
    r0 = np.sqrt(inp.radius_sq(t, 0.0))
    r1 = np.sqrt(inp.radius_sq(t, rho))
    c1 = inp.scale * rho
    return log_shell_mass_batch(inp.n, r0, c1 + r1, c1, r1, inp.sigma2)


def k_excess(t: float, rho: float, inp: GaussBoundInput) -> float:
    """P(C_j(t) \\ C0(t)) for a codeword of norm rho."""
    if t < 0 or rho < 0:
        raise ValueError("need t >= 0 and rho >= 0")
    return min(1.0, math.exp(float(_log_k_excess_grid(inp, rho, np.array([float(t)]))[0])))


def _log_gamma_radius(inp: GaussBoundInput, t: np.ndarray) -> np.ndarray:
    """ln r_E(t) for the bounded-codebook volume cap."""
    rm = inp.rm
    n = inp.n
    r0 = np.sqrt(inp.radius_sq(t, 0.0))
    r1 = np.sqrt(inp.radius_sq(t, rm))
    c1 = inp.scale * rm
    log_vdiff = log_vol_diff_vec(n, r0, c1, r1)
    with np.errstate(divide="ignore"):
        log_v0 = log_unit_ball_volume(n) + n * np.log(np.maximum(r0, 1e-300))
    log_v0 = np.where(r0 > 0, log_v0, LOG_ZERO)
    log_vtot = np.logaddexp(log_v0, inp.log_q + log_vdiff)
    log_rn = (log_vtot - log_unit_ball_volume(n)) / n
    log_rtilde = np.log(c1 + r1)
    return np.minimum(log_rn, log_rtilde)


def gamma_cap(t: float, inp: GaussBoundInput) -> float:
    """Volume-based cap Gamma_n(t) on the captured mass; 1 when unbounded."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    if inp.rm is None:
        return 1.0
    log_re = float(_log_gamma_radius(inp, np.array([float(t)]))[0])
    return reg_gamma_lower(0.5 * inp.n, 0.5 * math.exp(2.0 * log_re) / inp.sigma2)


# ---------------------------------------------------------------------------
# lower bound machinery: grids over mu, adversarial norm search
# ---------------------------------------------------------------------------

class _LowerTable:
    """Per-input grids for the sup-inf evaluation of the lower bound."""

    def __init__(self, inp: GaussBoundInput):
        self.inp = inp
        n, s2, d = inp.n, inp.sigma2, inp.dstar
        # t where the origin ball has swallowed all but 1e-13 of the mass
        t_k0 = (s2 - d) / (2.0 * d) * (n + 12.0 * math.sqrt(2.0 * n) + 60.0)
        t_end = t_k0
        if inp.rm is not None:
            for _ in range(80):
                if self._one_minus_gamma_at(t_end) < 1e-13:
                    break
                t_end *= 2.0
        self.t_grid = np.concatenate(
            [
                [0.0],
                np.geomspace(1e-6 * t_end, 0.04 * t_end, 100),
                np.linspace(0.04 * t_end, t_end, 300)[1:],
            ]
        )
        self.mu_grid = self.t_grid + np.expm1(-self.t_grid)
        arg = 0.5 * np.asarray(inp.radius_sq(self.t_grid, 0.0)) / s2
        self.one_minus_k0 = reg_gamma_upper(0.5 * n, arg)
        if inp.rm is None:
            one_minus_gamma = np.zeros_like(self.mu_grid)
        else:
            log_re = _log_gamma_radius(inp, self.t_grid)
            one_minus_gamma = reg_gamma_upper(0.5 * n, 0.5 * np.exp(2.0 * log_re) / s2)
        # T(mu0) = integral_{mu0}^{inf} (1 - Gamma) dmu on the grid
        seg = 0.5 * (one_minus_gamma[1:] + one_minus_gamma[:-1]) * np.diff(self.mu_grid)
        self.tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    def _one_minus_gamma_at(self, t: float) -> float:
        log_re = float(_log_gamma_radius(self.inp, np.array([t]))[0])
        return float(reg_gamma_upper(0.5 * self.inp.n, 0.5 * math.exp(2.0 * log_re) / self.inp.sigma2))

    def delta_curve(self, rho: float) -> np.ndarray:
        """Delta(mu0, rho) for every grid mu0 at a fixed codeword norm."""
        log_k = _log_k_excess_grid(self.inp, rho, self.t_grid)
        qk = np.exp(np.minimum(self.inp.log_q + log_k, 0.0))
        f = np.maximum(0.0, self.one_minus_k0 - qk)
        seg = 0.5 * (f[1:] + f[:-1]) * np.diff(self.mu_grid)
        first = np.concatenate([[0.0], np.cumsum(seg)])
        return first + self.tail

    def r_grid(self) -> np.ndarray:
        inp = self.inp
        r_cap = inp.rm if inp.rm is not None else 10.0 * math.sqrt(inp.n * (inp.sigma2 - inp.dstar))
        small = np.geomspace(r_cap * 1e-3, r_cap * 0.2, 10)
        return np.unique(np.concatenate([[0.0], small, np.linspace(0.2 * r_cap, r_cap, 22)]))


@lru_cache(maxsize=16)
def _table(inp: GaussBoundInput) -> _LowerTable:
    return _LowerTable(inp)


def delta_hat(mu0: float, r: float, inp: GaussBoundInput) -> float:
    """The split objective: captured-mass integral up to mu0 for norm-r
    codewords plus the volume-cap tail beyond mu0, in nats."""
    if mu0 < 0 or r < 0:
        raise ValueError("need mu0 >= 0 and r >= 0")
    if inp.rm is not None and r > inp.rm:
        raise ValueError(f"r exceeds the codeword bound: {r} > {inp.rm}")
    tab = _table(inp)
    curve = tab.delta_curve(r)
    first = curve - tab.tail
    return float(np.interp(mu0, tab.mu_grid, first) + np.interp(mu0, tab.mu_grid, tab.tail))


def _golden_min(f, lo, hi, iters=18):
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
        if b - a < 1e-9 * max(1.0, abs(b)):
            break
    return (c, fc) if fc < fd else (d, fd)


def lower_bound_detail(inp: GaussBoundInput) -> tuple[float, float, float, float]:
    """(bound, sup-inf value, argmax mu0, argmin r)."""
    tab = _table(inp)
    rs = tab.r_grid()
    memo: dict[float, np.ndarray] = {}

    def curve(r) -> np.ndarray:
        # the refinements around neighbouring mu0 walk the same r values
        r = float(r)
        if r not in memo:
            memo[r] = tab.delta_curve(r)
        return memo[r]

    curves = np.stack([curve(r) for r in rs])
    envelope = curves.min(axis=0)
    # refine the inf over r at the few best mu0 grid points
    order = np.argsort(envelope)[::-1]
    best_val, best_mu, best_r = -math.inf, 0.0, 0.0
    seen = 0
    for idx in order:
        if seen >= 2:
            break
        seen += 1
        i_min = int(np.argmin(curves[:, idx]))
        lo = rs[max(0, i_min - 1)]
        hi = rs[min(len(rs) - 1, i_min + 1)]
        r_ref, v_ref = _golden_min(lambda r: curve(r)[idx], lo, hi)
        v_ref = min(v_ref, envelope[idx])
        if v_ref > best_val:
            best_val, best_mu, best_r = v_ref, tab.mu_grid[idx], r_ref
    best_val = max(best_val, 0.0)
    d = inp.dstar
    return d * (1.0 + 2.0 * best_val / inp.n), best_val, best_mu, best_r


def lower_bound(inp: GaussBoundInput) -> float:
    """Converse bound on the distortion of any size-2**(nR) codebook."""
    return lower_bound_detail(inp)[0]


# ---------------------------------------------------------------------------
# upper bounds (ordered statistics)
# ---------------------------------------------------------------------------

def _source_radial_log_pdf(n: int, sigma2: float, x: np.ndarray) -> np.ndarray:
    """Log density of ||x||^2 for x ~ N(0, sigma2 I_n)."""
    a = 0.5 * n
    return (a - 1.0) * np.log(x) - 0.5 * x / sigma2 - a * math.log(2.0 * sigma2) - gammaln(a)


def _source_window(n: int, sigma2: float, x_hi: float):
    spread = sigma2 * math.sqrt(2.0 * n + 60.0)
    lo = max(1e-9, n * sigma2 - 15.0 * spread)
    hi = min(x_hi, n * sigma2 + 15.0 * spread)
    return lo, hi


def _unbounded_threshold(n: int, lam: np.ndarray, log_p0: float) -> np.ndarray:
    """Per lane, x with ln CDF_{chi2(n, lam)}(x) >= log_p0, solved as one batch.

    Each lane is bracketed on [0, n + lam + 10 sqrt(2n + 4 lam) + 10], where
    the log-CDF runs from -inf to above log_p0.  ``bracket_solve`` returns
    every lane on its ln CDF >= log_p0 side, so the threshold errs high, and
    so does the upper bound built on it, which keeps that bound valid.
    """
    lam = np.asarray(lam, dtype=float)

    def gap(x, lanes):
        return np.array([noncentral_chi2_log_cdf(n, lam[k], xk) for xk, k in zip(x, lanes)]) - log_p0

    hi = n + lam + 10.0 * np.sqrt(2.0 * n + 4.0 * lam) + 10.0
    return bracket_solve(gap, np.zeros_like(lam), hi)


def _moment_tail(n: int, sigma2: float, a: float) -> float:
    """E[(||x||^2/n) 1{||x||^2 > a}] = sigma2 (1 - CDF_{chi2(n+2)}(a/sigma2))."""
    return sigma2 * float(reg_gamma_upper(0.5 * (n + 2), 0.5 * a / sigma2))


def _log_budget(inp: GaussBoundInput) -> float:
    """ln of the ordered-statistics probability budget ln(1/eps)/(Q-2)."""
    lq = inp.log_q
    if lq < math.log(3.0):
        raise ValueError("codebook size must be at least 3")
    log_qm2 = lq + math.log1p(-2.0 * math.exp(-lq))
    return math.log(math.log(1.0 / inp.eps)) - log_qm2


def upper_bound_unbounded(inp: GaussBoundInput) -> GaussUpperBound:
    """Achievability bound for an unbounded random codebook.

    One codeword is pinned at the origin; the per-source-word radius
    threshold is the noncentral chi-squared quantile of the codeword law
    at probability ln(1/eps)/(Q-2).
    """
    n, s2, d, eps, delta = inp.n, inp.sigma2, inp.dstar, inp.eps, inp.delta
    log_p0 = _log_budget(inp)
    if log_p0 >= 0.0:
        # budget exceeds 1: threshold undefined, fall back to the pin codeword
        return GaussUpperBound(s2 + delta + eps * (2.0 * s2 - d), degenerate=True)
    mv = s2 - d
    x_hi = n * (s2 + delta)
    lo, hi = _source_window(n, s2, x_hi)

    # kink x* of min{x/n, threshold(x)}: CDF(lam, lam) = p0 at lam = x*/(s2-d)
    def kink_gap(lam, _lanes):
        return np.array([noncentral_chi2_log_cdf(n, m, m) - log_p0 for m in lam])

    lam_lo, lam_hi = 1e-9, x_hi / mv
    kink = None
    gap_lo, gap_hi = kink_gap([lam_lo, lam_hi], None)
    if gap_lo < 0.0 < gap_hi:
        kink = float(bracket_solve(kink_gap, lam_lo, lam_hi)[0]) * mv

    edges = [lo, 0.25 * lo + 0.75 * hi, hi]
    if kink is not None and lo < kink < hi:
        edges = [lo, kink, 0.5 * (kink + hi), hi]
    nodes, wgt = gl_panels(np.array(sorted(set(edges))), 32)
    thr = _unbounded_threshold(n, nodes / mv, log_p0) * mv / n
    integrand = np.exp(_source_radial_log_pdf(n, s2, nodes)) * np.minimum(nodes / n, thr)
    main = float((integrand * wgt).sum())

    # window truncation remainders, kept on the upper side
    below = float(reg_gamma_lower(0.5 * n, 0.5 * lo / s2)) * lo / n
    above = _moment_tail(n, s2, hi) - _moment_tail(n, s2, x_hi) if hi < x_hi else 0.0
    tail = _moment_tail(n, s2, x_hi)
    return GaussUpperBound(main + below + max(above, 0.0) + tail + eps * (2.0 * s2 - d))


def _bounded_radius(n: int, rm: float, mv: float, target: float, nodes: np.ndarray) -> np.ndarray:
    """Per-node radius t with ln P(ball(x, t) & ball(0, rm)) = target, |x|^2 = nodes.

    Solved on the bracket [max(|x| - rm, 0), |x| + rm], where the log-probability
    runs from -inf to ln C_m; every returned t has log-probability >= target,
    so the threshold errs high.
    """
    norms = np.sqrt(nodes)

    def gap(t, lanes):
        return log_prob_intersect_batch(n, rm, norms[lanes], t, mv) - target

    return bracket_solve(gap, np.maximum(norms - rm, 0.0), norms + rm)


def upper_bound_bounded(inp: GaussBoundInput) -> GaussUpperBound:
    """Achievability bound when codewords are confined to ||y|| <= rm,
    drawn from the truncated optimal marginal.

    Each node's threshold is solved to the side where the codeword lands
    inside it with probability at least the budget, so it errs high, and
    the bound with it.
    """
    if inp.rm is None:
        raise ValueError("bounded upper bound needs rm")
    n, s2, d, eps, delta, rm = inp.n, inp.sigma2, inp.dstar, inp.eps, inp.delta, inp.rm
    log_p0 = _log_budget(inp)
    if log_p0 >= 0.0:
        return GaussUpperBound(s2 + delta + eps * (2.0 * s2 - d), degenerate=True)
    mv = s2 - d
    log_cm = float(log_reg_gamma_lower(0.5 * n, 0.5 * rm**2 / mv))
    x_hi = n * (s2 + delta)
    lo, hi = _source_window(n, s2, x_hi)
    target = log_p0 + log_cm

    # threshold(x) > x/n exactly where the radius-|x| ball misses the
    # budget, since the log-probability increases in the radius; its sign
    # change is the kink of min{x/n, threshold(x)}, where the integration
    # gets a panel edge
    def kink_gap(x, _lanes):
        r = np.sqrt(x)
        return log_prob_intersect_batch(n, rm, r, r, mv) - target

    probe = np.linspace(lo, hi, 33)
    covered = kink_gap(probe, None) >= 0.0
    edges = [lo, 0.5 * (lo + hi), hi]
    crossing = np.nonzero(~covered[:-1] & covered[1:])[0]
    if crossing.size:
        i = int(crossing[0])
        kink = float(bracket_solve(kink_gap, probe[i], probe[i + 1])[0])
        edges = sorted({lo, kink, 0.5 * (kink + hi), hi})
    nodes, wgt = gl_panels(np.array(edges), 32)
    thr = _bounded_radius(n, rm, mv, target, nodes) ** 2 / n

    integrand = np.exp(_source_radial_log_pdf(n, s2, nodes)) * np.minimum(nodes / n, thr)
    main = float((integrand * wgt).sum())
    below = float(reg_gamma_lower(0.5 * n, 0.5 * lo / s2)) * lo / n
    above = _moment_tail(n, s2, hi) - _moment_tail(n, s2, x_hi) if hi < x_hi else 0.0
    tail = _moment_tail(n, s2, x_hi)
    eps_term = eps * s2 + eps * math.exp(-log_cm) * mv * float(
        reg_gamma_lower(0.5 * (n + 2), 0.5 * rm**2 / mv)
    )
    return GaussUpperBound(main + below + max(above, 0.0) + tail + eps_term)
