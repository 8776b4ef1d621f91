import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from rdflb import geometry
from rdflb.geometry import (
    _cap_cos,
    _log_cap_area_bounds,
    _log_full_shell,
    log_prob_intersect_batch,
    log_shell_mass_batch,
    log_vol_diff_vec,
)
from rdflb.logdomain import logsumexp
from rdflb.quadrature import gl_rule
from rdflb.special import (
    log_ball_volume,
    log_cone_area,
    log_unit_ball_volume,
    log_unit_sphere_area,
    noncentral_chi2_log_cdf,
    reg_gamma_lower,
)


def ball_volume(n, r):
    return math.exp(log_unit_ball_volume(n) + n * math.log(r)) if r > 0 else 0.0


def log_prob_diff(n, r0, c1, r1, s2=1.0):
    """ln P(C1 \\ C0): the mass of C1 beyond radius r0, the shell the converse integrates."""
    r0, c1, r1 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r0, c1, r1)))
    return log_shell_mass_batch(n, r0, c1 + r1, c1, r1, s2)


def prob_diff(n, r0, c1, r1, s2=1.0):
    return np.exp(log_prob_diff(n, r0, c1, r1, s2))


def prob_intersect(n, r0, c1, r1, s2=1.0):
    c1, r1 = np.broadcast_arrays(np.asarray(c1, dtype=float), np.asarray(r1, dtype=float))
    return np.exp(log_prob_intersect_batch(n, r0, c1, r1, s2))


def vol_diff(n, r0, c1, r1):
    return np.exp(log_vol_diff_vec(n, np.atleast_1d(np.asarray(r0, dtype=float)), c1,
                                   np.atleast_1d(np.asarray(r1, dtype=float))))


# ---------------------------------------------------------------------------
# cap semiangle of the radial integrand
# ---------------------------------------------------------------------------

def test_semiangle_tangencies():
    # outer tangency r = c1 + r1: empty cap; r = r1 - c1 (origin inside C1): full sphere
    theta = np.arccos(_cap_cos(np.array([2.0, 0.4]), np.array([1.0, 1.0]), np.array([3.0, 0.6])))
    assert theta == pytest.approx([0.0, math.pi], abs=1e-7)
    # outside the shell the cosine is clamped: the sphere misses C1 or lies inside it
    theta = np.arccos(_cap_cos(np.array([2.0, 0.4]), np.array([1.0, 1.0]), np.array([10.0, 0.1])))
    assert theta.tolist() == [0.0, math.pi]


def test_semiangle_value():
    theta = np.arccos(_cap_cos(np.array([2.0]), np.array([1.0]), np.array([2.0])))
    assert theta[0] == pytest.approx(math.acos(7.0 / 8.0), rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# Gaussian masses
# ---------------------------------------------------------------------------

def test_prob_diff_degenerate_cases():
    # C1 entirely inside C0
    assert prob_diff(6, 5.0, 1.2, 0.9)[0] == 0.0
    # nothing subtracted: full noncentral ball mass
    assert prob_diff(6, 0.0, 1.2, 0.9)[0] == pytest.approx(math.exp(noncentral_chi2_log_cdf(6, 1.44, 0.81)), rel=1e-10)
    # disjoint difference equals the whole ball
    assert prob_diff(6, 1.0, 5.0, 0.9)[0] == pytest.approx(math.exp(noncentral_chi2_log_cdf(6, 25.0, 0.81)), rel=1e-6)


def test_prob_intersect_degenerate_cases():
    # concentric nested, disjoint, and C0 inside C1
    got = prob_intersect(5, 2.0, [0.0], [1.5])[0], prob_intersect(5, 1.0, [4.0], [1.0])[0]
    assert got[0] == pytest.approx(reg_gamma_lower(2.5, 0.5 * 1.5**2), rel=1e-12, abs=0)
    assert got[1] == 0.0
    assert prob_intersect(5, 0.7, [0.1], [3.0])[0] == pytest.approx(reg_gamma_lower(2.5, 0.245), rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [8, 64, 1200])
def test_prob_intersect_of_the_touching_ball_is_zero(n):
    # the floor of a bounded codebook's radius bracket: the ball of radius
    # |x| - rm around x touches the rm-ball from outside, so they meet in a
    # point.  Where |x| <= 2 rm the difference |x| - rm is exact (Sterbenz),
    # and the mass is exactly -inf; beyond, it may round up and leave a
    # sliver of the rm-sphere, whose mass stays below e^(-10 n)
    rng = np.random.default_rng(n)
    rm = np.array([1.0, 3.0, math.sqrt(0.25 * n), math.sqrt(2.0 * n), 200.0])
    for mv in (0.5, 0.75):
        for r in rm:
            near = r * np.append(rng.uniform(1.0, 2.0, 100), [np.nextafter(1.0, 2.0), 2.0])
            assert np.isneginf(log_prob_intersect_batch(n, r, near, near - r, mv)).all()
            far = r * rng.uniform(2.0, 20.0, 100)
            assert (log_prob_intersect_batch(n, r, far, far - r, mv) < -10.0 * n).all()


def test_prob_additivity_random():
    # P(C1 \ C0) + P(C1 & C0) = P(C1), a noncentral chi-squared CDF
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(2, 51))
        r0, c1, r1 = rng.uniform(0.05, 3.0, 3)
        s2 = float(rng.uniform(0.3, 2.0))
        total = prob_diff(n, r0, c1, r1, s2)[0] + prob_intersect(n, r0, [c1], [r1], s2)[0]
        want = math.exp(noncentral_chi2_log_cdf(n, c1**2 / s2, r1**2 / s2))
        assert total == pytest.approx(want, abs=1e-8)


def test_prob_monotonicity():
    d = prob_diff(8, [1.0, 1.3], 1.5, 1.2)
    assert d[1] <= d[0] + 1e-14
    i = prob_intersect(8, 1.0, [1.5, 1.5], [1.2, 1.5])
    assert i[1] >= i[0] - 1e-14
    assert prob_intersect(8, 1.3, [1.5], [1.2])[0] >= i[0] - 1e-14


@pytest.mark.parametrize("n,r0,c1,r1,s2", [
    (2, 1.0, 2.0, 1.0, 1.0),
    (3, 2.0, 1.5, 1.0, 1.0),
    (4, 0.5, 0.2, 2.0, 1.0),
    (5, 1.5, 0.8, 2.0, 0.7),
    (6, 1.2, 1.0, 1.4, 1.3),
])
def test_prob_vs_monte_carlo(n, r0, c1, r1, s2):
    m = 1_000_000
    rng = np.random.default_rng(n * 1000 + 11)
    x = rng.normal(0.0, math.sqrt(s2), size=(m, n))
    shift = np.zeros(n)
    shift[0] = c1
    in1 = ((x - shift) ** 2).sum(axis=1) <= r1 * r1
    in0 = (x**2).sum(axis=1) <= r0 * r0
    pd = float((in1 & ~in0).mean())
    pi = float((in1 & in0).mean())
    se_d = math.sqrt(max(pd * (1 - pd), 1e-12) / m)
    se_i = math.sqrt(max(pi * (1 - pi), 1e-12) / m)
    assert prob_diff(n, r0, c1, r1, s2)[0] == pytest.approx(pd, abs=3.5 * se_d)
    assert prob_intersect(n, r0, [c1], [r1], s2)[0] == pytest.approx(pi, abs=3.5 * se_i)


def test_high_dimension_no_overflow():
    log_v = log_prob_diff(1000, math.sqrt(500.0), math.sqrt(900.0), math.sqrt(480.0))[0]
    assert math.isfinite(log_v)
    assert log_v < math.log(1e-100)  # a genuinely tiny but finite mass


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def test_vol_concentric_and_disjoint():
    # C1 nested in C0 (near-concentric; the center distance must be > 0)
    assert vol_diff(4, 2.0, 1e-3, 1.0)[0] == 0.0
    assert vol_diff(4, 2.0, 0.5, 1.0)[0] == 0.0
    # C0 nested in C1 and disjoint balls
    assert vol_diff(4, 0.5, 0.2, 1.5)[0] == pytest.approx(ball_volume(4, 1.5) - ball_volume(4, 0.5), rel=1e-12, abs=0)
    assert vol_diff(4, 1.0, 5.0, 1.5)[0] == pytest.approx(ball_volume(4, 1.5), rel=1e-12, abs=0)


def test_vol_lens_closed_form():
    # classical 3-D lens: r0 = c1 = r1 = 1 gives intersection 5 pi / 12
    assert vol_diff(3, 1.0, 1.0, 1.0)[0] == pytest.approx(4 * math.pi / 3 - 5 * math.pi / 12, rel=1e-12, abs=0)


def _mp_log_vol_diff(n, r0, c1, r1):
    """ln |C1 \\ C0| in 40 digits: the lens is a cap of each ball beyond the
    radical plane, each the incomplete-beta fraction of its ball."""
    with mpmath.workdps(40):
        r0, c1, r1 = (mpmath.mpf(v) for v in (r0, c1, r1))
        d0 = (c1**2 + r0**2 - r1**2) / (2 * c1)

        def cap(r, a):
            half = mpmath.betainc(mpmath.mpf(n + 1) / 2, 0.5, 0, 1 - (a / r) ** 2, regularized=True) / 2
            return half if a >= 0 else 1 - half

        log_vn = (mpmath.mpf(n) / 2) * mpmath.log(mpmath.pi) - mpmath.loggamma(mpmath.mpf(n) / 2 + 1)
        v0, v1 = (mpmath.exp(log_vn + n * mpmath.log(r)) for r in (r0, r1))
        return float(mpmath.log(v1 - v0 * cap(r0, d0) - v1 * cap(r1, c1 - d0)))


@pytest.mark.parametrize("n", [2, 3, 64, 1000])
def test_vol_diff_vs_mpmath_lens(n):
    # the radical plane at signed distance a1 from C1's center: a1 < 0 gives
    # C1 an obtuse cap (more than half of it in the lens), and a1 > c1 gives
    # C0 one; the caps' cosines sit within a few 1/sqrt(n) of 0.  r1 puts
    # ln|C1| near 0, so tol is relative to the volume, not to its log; at
    # n = 1000, ln V_n and n ln r1 are each about 2e3, with last bits of 2.3e-13
    tol = 3e-13 if n == 1000 else 2e-14
    r1 = math.sqrt((n + 2) / (2.0 * math.pi * math.e))
    s = 1.0 / math.sqrt(n + 2)
    geoms = [(c1, a1) for c1 in (0.3, 1.0) for a1 in (1.5 * s, 0.5 * s, -0.5 * s, -1.5 * s)] + [(0.3, 0.5)]
    c1 = r1 * np.array([g[0] for g in geoms])
    r0 = np.sqrt(c1**2 - 2.0 * c1 * r1 * np.array([g[1] for g in geoms]) + r1**2)
    for i, c in enumerate(c1):
        want = _mp_log_vol_diff(n, r0[i], c, r1)
        assert abs(want) < 10.0
        assert log_vol_diff_vec(n, r0[i : i + 1], c, np.full(1, r1))[0] == pytest.approx(want, rel=0, abs=tol)


def test_vol_nested_and_disjoint_large_n():
    # at n = 1000 the cap cosines clip to -1 or 1 and the cap fractions are
    # exactly 0 or -inf: disjoint balls and r0 = 0 give ln|C1| exactly, C1
    # inside C0 gives -inf, and C0 inside C1 gives ln(|C1| - |C0|)
    n = 1000
    r1 = math.sqrt((n + 2) / (2.0 * math.pi * math.e))
    log_v1 = log_ball_volume(n, r1)
    r0 = r1 * np.array([0.5, 0.0, 1.5, 1.0 - 1e-3])
    c1 = r1 * np.array([2.0, 0.3, 0.2, 0.5e-3])
    got = [log_vol_diff_vec(n, r0[i : i + 1], c, np.full(1, r1))[0] for i, c in enumerate(c1)]
    assert got[:3] == [log_v1, log_v1, -math.inf]
    with mpmath.workdps(40):
        log_vn = (mpmath.mpf(n) / 2) * mpmath.log(mpmath.pi) - mpmath.loggamma(mpmath.mpf(n) / 2 + 1)
        v0, v1 = (mpmath.exp(log_vn + n * mpmath.log(mpmath.mpf(r))) for r in (r0[3], r1))
        want = float(mpmath.log(v1 - v0))
    assert -1.0 < want - log_v1 < -0.1  # |C0| is a fair share of |C1|
    # ln V_n and n ln r are each about 2e3 here, and their last bits are 2.3e-13
    assert got[3] == pytest.approx(want, rel=0, abs=3e-13)


def _radial_intersection_volume(n, r0, c1, r1):
    """|C1 & C0| as the sphere caps inside C1 summed over 0 < r <= r0, by
    scipy's adaptive quadrature, with the kinks of the cap as breakpoints."""
    def cap(r):
        return r ** (n - 1) * math.exp(log_cone_area(n, float(_cap_cos(c1, r1, r))))

    kinks = [k for k in (abs(c1 - r1), c1 + r1) if 0.0 < k < r0]
    return quad(cap, 0.0, r0, points=kinks or None, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def test_vol_additivity_random():
    # |C1 \ C0| + |C1 & C0| = |C1|, with the intersection from the radial
    # route, independent of the radical-plane caps of log_vol_diff_vec
    rng = np.random.default_rng(3)
    for _ in range(150):
        n = int(rng.integers(2, 51))
        r0, c1, r1 = rng.uniform(0.1, 3.0, 3)
        total = vol_diff(n, r0, c1, r1)[0] + _radial_intersection_volume(n, r0, c1, r1)
        assert total == pytest.approx(ball_volume(n, r1), rel=1e-8)


def test_vol_vs_monte_carlo_3d():
    # uniform sampling inside C1
    rng = np.random.default_rng(5)
    n, r0, c1, r1 = 3, 1.2, 0.9, 1.1
    m = 400_000
    pts = rng.normal(size=(m, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= (rng.random((m, 1)) ** (1.0 / n)) * r1
    pts[:, 0] += c1
    frac = float(((pts**2).sum(axis=1) > r0 * r0).mean())
    want = frac * ball_volume(n, r1)
    se = ball_volume(n, r1) * math.sqrt(frac * (1 - frac) / m)
    assert vol_diff(n, r0, c1, r1)[0] == pytest.approx(want, abs=3.5 * se)


# ---------------------------------------------------------------------------
# cap-area pruning
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 16, 64, 512, 4096])
def test_cap_area_bounds_bracket_the_cap_area(n):
    half = 0.5 * math.pi
    theta = np.concatenate([
        np.geomspace(1e-12, 1e-2, 11),
        np.linspace(0.02, math.pi - 0.02, 157),
        half + np.array([-1e-3, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3]),
        math.pi - np.geomspace(1e-12, 1e-2, 11),
        [0.0, math.pi],
    ])
    # the shell quadrature reads the bounds and the cap area at the same cosine
    cos = np.concatenate([np.cos(theta), [1.0 - 2.0**-52, 1.0 - 2.0**-40, -1.0 + 2.0**-52]])
    got = log_cone_area(n, cos)
    lower, upper = _log_cap_area_bounds(n, cos)
    # the bounds are exact inequalities; allow the rounding of the logs only
    slack = 1e-14 * np.maximum(np.abs(np.where(np.isfinite(got), got, 0.0)), 1.0)
    assert np.all((lower <= got + slack) | np.isneginf(lower))
    assert np.all((got <= upper + slack) | np.isneginf(got))
    assert np.array_equal(np.isneginf(got), np.isneginf(upper))
    assert np.all(upper <= log_unit_sphere_area(n) + 1e-15)


def _reference_half(n, edge, far, c1, r1, sigma2, from_left):
    """One half of the cap shell, every kept node's cap area evaluated."""
    rows = edge.shape[0]
    span = np.maximum((far - edge) * np.where(from_left, 1.0, -1.0), 0.0)
    u_max = np.sqrt(span)
    edge_safe = np.maximum(edge, 1e-300)
    slope = np.abs(-edge_safe / sigma2 + (n - 1) / edge_safe)
    delta = 1.0 / np.maximum(slope, 1e-300)
    u_splits = np.sqrt(np.minimum(delta[:, None] * np.array([[3.0, 15.0, 60.0]]), span[:, None]))
    frac = u_max[:, None] * np.array([[0.35, 0.8]])
    edges_u = np.concatenate(
        [np.zeros((rows, 1)), np.sort(np.concatenate([u_splits, frac], axis=1), axis=1), u_max[:, None]],
        axis=1,
    )
    u, wgt = gl_rule(edges_u[:, :-1].ravel(), edges_u[:, 1:].ravel(), 16)
    u, wgt = u.reshape(rows, -1), wgt.reshape(rows, -1)
    rho = edge[:, None] + np.where(from_left, 1.0, -1.0)[:, None] * u**2
    jac = 2.0 * u
    with np.errstate(divide="ignore", invalid="ignore"):
        base = (n - 1) * np.log(np.maximum(rho, 1e-300))
        base = base - rho**2 / (2.0 * sigma2) - 0.5 * n * math.log(2.0 * math.pi * sigma2)
        ok = (wgt > 0) & (jac > 0)
        base = np.where(ok, base + np.log(np.where(ok, wgt * jac, 1.0)), -np.inf)
    keep = ok & (base >= np.max(base, axis=1, keepdims=True) - 46.0)
    log_omega = np.full(base.shape, -np.inf)
    if np.any(keep):
        ri, _ = np.nonzero(keep)
        log_omega[keep] = log_cone_area(n, _cap_cos(c1[ri], r1[ri], rho[keep]))
    log_terms = base + log_omega
    return np.where(np.isnan(log_terms), -np.inf, log_terms)


def _reference_shell_mass(n, lo, hi, c1, r1, sigma2):
    """``log_shell_mass_batch`` as two unpruned halves, each its own pass."""
    kink = np.abs(c1 - r1)
    a_hi = np.minimum(hi, kink)
    full_rows = (r1 > c1) & (a_hi > lo)
    log_full = np.where(
        full_rows, _log_full_shell(n, np.where(full_rows, lo, 0.0), np.where(full_rows, a_hi, 1.0), sigma2), -np.inf
    )
    cap_lo = np.maximum(lo, kink)
    cap_hi = np.minimum(hi, c1 + r1)
    width = np.maximum(cap_hi - cap_lo, 0.0)
    peak = math.sqrt(sigma2 * max(n - 1, 1))
    mid = np.clip(peak, cap_lo + 0.05 * width, cap_hi - 0.05 * width)
    left = _reference_half(n, cap_lo, mid, c1, r1, sigma2, np.ones_like(cap_lo, bool))
    right = _reference_half(n, cap_hi, mid, c1, r1, sigma2, np.zeros_like(cap_lo, bool))
    log_cap = np.where(cap_hi > cap_lo, logsumexp(np.concatenate([left, right], axis=1), axis=1), -np.inf)
    return np.where(hi > lo, np.logaddexp(log_full, log_cap), -np.inf)


@pytest.mark.parametrize("n", [2, 3, 8, 64, 512])
@pytest.mark.parametrize("sigma2", [1.0], ids=["probability"])
def test_pruned_one_pass_shell_mass_matches_the_two_half_path(n, sigma2):
    rng = np.random.default_rng(n)
    m = 300
    scale = math.sqrt(n)
    c1 = rng.uniform(0.05, 2.0, m) * scale
    r1 = rng.uniform(0.05, 2.0, m) * scale
    lo = rng.uniform(0.0, 2.5, m) * scale
    hi = lo + rng.uniform(-0.5, 2.5, m) * scale
    # rows with hi <= lo, disjoint balls, C1 holding the origin, and whole balls
    hi[:20] = lo[:20] - rng.uniform(0.0, 1.0, 20)
    hi[20:25] = lo[20:25]
    c1[25:45] = 3.0 * scale + r1[25:45]
    lo[25:35], hi[25:35] = 0.0, c1[25:35] + r1[25:35]
    r1[45:85] = c1[45:85] + rng.uniform(0.05, 1.0, 40) * scale
    lo[45:65] = 0.0
    lo[85:100], hi[85:100] = 0.0, c1[85:100] + r1[85:100]
    got = log_shell_mass_batch(n, lo, hi, c1, r1, sigma2)
    want = _reference_shell_mass(n, lo, hi, c1, r1, sigma2)
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    assert np.isneginf(got[:25]).all() and np.isfinite(got[25:]).any()
    live = np.isfinite(want)
    # ln(got) - ln(want) is the relative error of the mass
    assert np.all(np.abs(got[live] - want[live]) <= 1e-15)


def test_shell_mass_without_full_rows_makes_no_gamma_call(monkeypatch):
    calls = []
    real = geometry.log_reg_gamma_lower
    monkeypatch.setattr(geometry, "log_reg_gamma_lower", lambda a, x: calls.append(a) or real(a, x))
    n = 16
    # C1 misses the origin in every row: no full-sphere segment
    c1, r1 = np.array([3.0, 4.0, 5.0]), np.array([1.0, 2.0, 4.5])
    log_shell_mass_batch(n, np.zeros(3), c1 + r1, c1, r1, 1.0)
    assert calls == []
    # one row holds the origin: one pair of calls, on that row alone
    log_shell_mass_batch(n, np.zeros(4), np.append(c1 + r1, 2.0), np.append(c1, 1.0), np.append(r1, 4.0), 1.0)
    assert len(calls) == 2


@pytest.mark.parametrize("sigma2", [1.0], ids=["probability"])
def test_full_rows_among_cap_rows_keep_the_masked_values(sigma2):
    n = 12
    c1 = np.array([1.0, 3.0, 0.5, 4.0, 2.0, 0.2])
    r1 = np.array([4.0, 1.0, 3.0, 2.0, 5.0, 1.5])
    lo = np.array([0.0, 2.5, 0.5, 2.2, 1.0, 0.1])
    hi = np.array([2.5, 3.5, 2.0, 5.5, 2.8, 1.2])
    full_rows = (r1 > c1) & (hi <= r1 - c1)
    assert full_rows.sum() == 4 and (c1 > r1).sum() == 2
    got = log_shell_mass_batch(n, lo, hi, c1, r1, sigma2)
    # the full-sphere rows equal the closed form taken over every row and
    # masked, bit for bit; the cap rows equal a call on them alone
    a_hi = np.minimum(hi, np.abs(c1 - r1))
    every_row = _log_full_shell(n, np.where(full_rows, lo, 0.0), np.where(full_rows, a_hi, 1.0), sigma2)
    masked = np.where(full_rows, every_row, -np.inf)
    assert np.array_equal(got[full_rows], masked[full_rows])
    cap = ~full_rows
    assert np.array_equal(got[cap], log_shell_mass_batch(n, lo[cap], hi[cap], c1[cap], r1[cap], sigma2))
