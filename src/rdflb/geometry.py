"""Gaussian masses and volumes of differences/intersections of two n-balls.

C0 is the origin ball of radius r0 and C1 the ball of radius r1 centered
at distance c1.  The primitive is a radial integral over spheres: the part
of the radius-r sphere inside C1 is a cap, so every Gaussian mass reduces to

    integral  [density](r) * r^(n-1) * Omega_n(theta(r)) dr

with theta(r) from the triangle (r, c1, r1).  Integrands underflow doubles
for n beyond a few hundred, so everything is assembled in the log domain
and re-exponentiated around the maximum.  Both halves of a row's cap
shell go through one pass, and the cap area (an incomplete beta function)
is evaluated only at the nodes whose elementary upper bound reaches within
46 nats of the row's largest lower bound; every node left out is below
e^-46 of the row's largest term (``_log_cap_shell``).  The volume of
C1 \\ C0 is exact instead: the cap of C1 beyond the radical plane less the
cap of C0 beyond it, one ``log_diff`` of two ball caps, each a cap
fraction two dimensions up.  Every function is vectorized over rows of
radii.
"""

from __future__ import annotations

import math

import numpy as np

from .logdomain import LOG_ZERO, log_diff, logsumexp
from .quadrature import gl_rule
from .special import log_ball_volume, log_cap_fraction, log_cone_area, log_reg_gamma_lower, log_unit_sphere_area

__all__ = ["log_shell_mass_batch", "log_prob_intersect_batch", "log_vol_diff_vec"]

# Gauss-Legendre nodes per panel of the cap-shell quadrature
_NODES = 16


# ---------------------------------------------------------------------------
# batched radial integrals
# ---------------------------------------------------------------------------

def _cap_cos(c1, r1, rho):
    """cos(theta(rho)), theta the cap semiangle of the radius-rho sphere inside C1.

    It is clamped to the geometric range; outside values mean the sphere is
    fully inside (theta = pi) or fully outside (theta = 0) the cap."""
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (c1**2 + rho**2 - r1**2) / (2.0 * c1 * rho)
    arg = np.where(np.isnan(arg), 1.0, arg)
    return np.clip(arg, -1.0, 1.0)


def _log_full_shell(n, a, b, sigma2):
    """ln of the full-sphere shell mass over a < r <= b (closed form)."""
    a = np.maximum(a, 0.0)
    upper = log_reg_gamma_lower(0.5 * n, 0.5 * b**2 / sigma2)
    lower = log_reg_gamma_lower(0.5 * n, 0.5 * a**2 / sigma2)
    return log_diff(upper, lower)


def _log_cap_area_bounds(n: int, cos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementary (lower, upper) bounds on ln Omega_n(theta), from cos(theta)
    alone, no beta function.

    Omega_n(theta) = A_{n-1} integral_0^theta sin^(n-2)(phi) dphi.  On
    [0, theta] with theta <= pi/2, cos(theta) <= cos(phi) <= 1, so
    integrating sin^(n-2)(phi) cos(phi) gives

        (A_{n-1}/(n-1)) sin^(n-1)(theta) <= Omega_n(theta) <= (A_{n-1}/(n-1)) sin^(n-1)(theta) / cos(theta),

    and Omega_n(theta) <= A_n/2 as the cap is at most a hemisphere.  For
    theta > pi/2 (cos(theta) < 0), A_n/2 <= Omega_n(theta) <= A_n.
    sin^2(theta) is taken as (1 - cos)(1 + cos).
    """
    log_half = log_unit_sphere_area(n) - math.log(2.0)
    acute = cos >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = log_unit_sphere_area(n - 1) - math.log(n - 1) + 0.5 * (n - 1) * np.log((1.0 - cos) * (1.0 + cos))
        upper = np.minimum(lower - np.log(cos), log_half)
    return np.where(acute, lower, log_half), np.where(acute, upper, log_half + math.log(2.0))


def _cap_half_rows(n, edge, far, sigma2, sgn):
    """Nodes and log-weights of the cap shell between edge and far, one half-row
    per entry, substituting r = edge + sgn u**2 (sgn = +1 from the left, -1
    from the right) so the sqrt behavior of theta at tangency is analytic.

    Returns (rho, base, keep), each half-rows x nodes: the radii, ln of
    density * r^(n-1) * weight * jacobian, and the nodes within 46 nats of
    their half-row's largest base.  The cap area is at most the full
    sphere, so the nodes left out cannot matter.
    """
    rows = edge.shape[0]
    span = np.maximum((far - edge) * sgn, 0.0)
    u_max = np.sqrt(span)
    # refine in u on the edge decay length of the log-integrand
    edge_safe = np.maximum(edge, 1e-300)
    slope = np.abs(-edge_safe / sigma2 + (n - 1) / edge_safe)
    delta = 1.0 / np.maximum(slope, 1e-300)
    u_splits = np.sqrt(np.minimum(delta[:, None] * np.array([[3.0, 15.0, 60.0]]), span[:, None]))
    frac = u_max[:, None] * np.array([[0.35, 0.8]])
    edges_u = np.concatenate(
        [np.zeros((rows, 1)), np.sort(np.concatenate([u_splits, frac], axis=1), axis=1), u_max[:, None]],
        axis=1,
    )
    u, wgt = gl_rule(edges_u[:, :-1].ravel(), edges_u[:, 1:].ravel(), _NODES)
    u, wgt = u.reshape(rows, -1), wgt.reshape(rows, -1)
    rho = edge[:, None] + sgn[:, None] * u**2

    # u >= 0 and wgt >= 0, so a zero weight or jacobian 2u gives a -inf base
    with np.errstate(divide="ignore"):
        base = (n - 1) * np.log(np.maximum(rho, 1e-300)) - rho**2 / (2.0 * sigma2)
        base = base - 0.5 * n * math.log(2.0 * math.pi * sigma2) + np.log(wgt * (2.0 * u))
    row_max = np.max(base, axis=1, keepdims=True)
    return rho, base, (base >= row_max - 46.0) & (base > LOG_ZERO)


def _log_cap_shell(n, cap_lo, cap_hi, mid, c1, r1, sigma2):
    """ln of the cap-shell integral from cap_lo to cap_hi, per row, in one
    pass over both halves: [cap_lo, mid] from the left, [mid, cap_hi] from
    the right, laid out as half-rows 2i and 2i + 1.

    The cap area is evaluated only where it can matter.  With L <= ln Omega
    <= U the bounds of ``_log_cap_area_bounds`` and M the largest base + L
    over the row's kept nodes (both halves), a node with base + U < M - 46
    is dropped: its term e^base Omega is at most e^(base + U) < e^(M - 46),
    and e^M is at most the term of the node that sets M.  So, up to the
    rounding of the bounds, every dropped term is below e^-46 (1.1e-20) of
    the row's largest, and the at most 2 x 96 of them lower the row's sum
    by less than 2.1e-18 relative.
    """
    rows = cap_lo.size
    rho, base, keep = _cap_half_rows(
        n, np.stack([cap_lo, cap_hi], axis=1).ravel(), np.repeat(mid, 2), sigma2, np.tile([1.0, -1.0], rows)
    )
    row = np.nonzero(keep)[0] // 2
    cos = _cap_cos(c1[row], r1[row], rho[keep])
    lower, upper = _log_cap_area_bounds(n, cos)
    b = base[keep]
    best = np.full(base.shape, LOG_ZERO)
    best[keep] = b + lower
    floor = best.reshape(rows, -1).max(axis=1) - 46.0
    need = b + upper >= floor[row]
    terms = np.full(b.shape, LOG_ZERO)
    terms[need] = b[need] + log_cone_area(n, cos[need])
    log_terms = np.full(base.shape, LOG_ZERO)
    log_terms[keep] = np.where(np.isnan(terms), LOG_ZERO, terms)
    return logsumexp(log_terms.reshape(rows, -1), axis=1)


# shell rows per cap-shell pass: 2 x 64 half-rows keep every temporary at
# half the size of one half of a 256-row call; rows are independent, so the
# chunks do not move a value
_ROWS = 64


def log_shell_mass_batch(
    n: int,
    lo: np.ndarray,
    hi: np.ndarray,
    c1: np.ndarray,
    r1: np.ndarray,
    sigma2: float,
) -> np.ndarray:
    """ln of integral_lo^hi [density] r^(n-1) Omega_n(theta(r)) dr per row:
    the N(0, sigma2 I_n) mass of C1 between the radii lo and hi.

    Rows with hi <= lo return exact log-zero.  The region below |c1 - r1|
    (full spheres) is handled in closed form; the cap region is integrated
    in two halves with a square-root substitution at each end, which
    removes the tangency cusps of theta(r), and the cap area is evaluated
    only at the nodes that can matter (``_log_cap_shell``).
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    c1 = np.broadcast_to(np.asarray(c1, dtype=float), lo.shape).astype(float)
    r1 = np.broadcast_to(np.asarray(r1, dtype=float), lo.shape).astype(float)

    kink = np.abs(c1 - r1)
    # full-sphere segment exists only when the origin is inside C1
    a_hi = np.minimum(hi, kink)
    full_rows = (r1 > c1) & (a_hi > lo)
    log_full = np.full(lo.shape, LOG_ZERO)
    if full_rows.any():
        log_full[full_rows] = _log_full_shell(n, lo[full_rows], a_hi[full_rows], sigma2)

    cap_lo = np.maximum(lo, kink)
    cap_hi = np.minimum(hi, c1 + r1)
    width = np.maximum(cap_hi - cap_lo, 0.0)
    # anchor the halves so the radial density peak faces a substitution edge
    peak = math.sqrt(sigma2 * max(n - 1, 1))
    mid = np.clip(peak, cap_lo + 0.05 * width, cap_hi - 0.05 * width)

    log_cap = np.full(lo.shape, LOG_ZERO)
    cap_rows = np.flatnonzero(cap_hi > cap_lo)
    for i in range(0, cap_rows.size, _ROWS):
        k = cap_rows[i : i + _ROWS]
        log_cap[k] = _log_cap_shell(n, cap_lo[k], cap_hi[k], mid[k], c1[k], r1[k], sigma2)

    out = np.logaddexp(log_full, log_cap)
    return np.where(hi > lo, out, LOG_ZERO)


def log_prob_intersect_batch(n: int, r0: float, c1: np.ndarray, r1: np.ndarray, s2: float) -> np.ndarray:
    """ln P(C1 & C0) under N(0, s2 I_n) per row of (c1, r1); -inf where empty.

    This is the shell mass from 0 to min(r0, c1 + r1): ``log_shell_mass_batch``
    takes the full ball of radius r1 - c1 around the origin (when C1 holds
    it) in closed form, and gives -inf to disjoint rows and rows with r1 <= 0.
    """
    hi = np.minimum(r0, np.add(c1, r1, dtype=float))
    return log_shell_mass_batch(n, np.zeros_like(hi), hi, c1, r1, s2)


def log_vol_diff_vec(n: int, r0: np.ndarray, c1: float, r1: np.ndarray) -> np.ndarray:
    """ln Lebesgue volume of C1 \\ C0 for vectors of radii at a fixed center distance c1 > 0.

    The radical hyperplane x = a0, a0 = (c1^2 + r0^2 - r1^2) / (2 c1), holds
    the intersection of the two spheres.  Beyond it (x > a0) the part of C0
    lies inside C1, and short of it the part of C1 lies inside C0, so
    C1 \\ C0 is the cap of C1 beyond the plane less the cap of C0 beyond
    it: one difference.  The cap of the radius-r ball beyond a plane at
    signed distance a from its center is the fraction
    ``log_cap_fraction(n + 2, a / r)`` of the ball, with the cosine clipped
    to [-1, 1], so disjoint or nested balls and r0 = 0 need no case of
    their own.
    """
    r0 = np.asarray(r0, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    a0 = (c1 * c1 + r0**2 - r1**2) / (2.0 * c1)

    def cap(r, a):
        s = np.maximum(r, 1e-300)
        return log_ball_volume(n, r) + log_cap_fraction(n + 2, np.clip(a, -s, s) / s)

    return log_diff(cap(r1, a0 - c1), cap(r0, a0))
