import math

import numpy as np
import pytest

from rdflb import gauss
from rdflb.gauss import GaussBoundInput
from rdflb.special import noncentral_chi2_cdf, noncentral_chi2_log_cdf, reg_gamma_upper


INP2 = GaussBoundInput(2, 0.5)


# ---------------------------------------------------------------------------
# pointwise pieces
# ---------------------------------------------------------------------------

def test_k0_closed_form():
    # sigma2=1, R=1/2: D=1/2, R(t,0) = 2t, so K0(1) = CDF_chi2(2) at 2
    assert gauss.k0(0.0, INP2) == 0.0
    assert gauss.k0(1.0, INP2) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert gauss.k0(1e6, INP2) == pytest.approx(1.0, abs=1e-14)


def test_k_excess_zero_norm():
    assert gauss.k_excess(1.0, 0.0, INP2) == 0.0


def test_k_excess_disjoint_is_full_ball():
    inp = GaussBoundInput(4, 0.5)
    t, rho = 0.01, 30.0
    want = noncentral_chi2_cdf(4, (inp.scale * rho) ** 2, float(inp.radius_sq(t, rho)))
    assert gauss.k_excess(t, rho, inp) == pytest.approx(want, rel=1e-6)


def test_k_excess_monte_carlo():
    inp = GaussBoundInput(3, 0.5)
    t, rho = 0.4, 1.1
    r0 = math.sqrt(float(inp.radius_sq(t, 0.0)))
    r1 = math.sqrt(float(inp.radius_sq(t, rho)))
    c = inp.scale * rho
    m = 1_000_000
    rng = np.random.default_rng(42)
    x = rng.standard_normal((m, 3))
    in_j = ((x - np.array([c, 0.0, 0.0])) ** 2).sum(axis=1) <= r1 * r1
    in_0 = (x**2).sum(axis=1) <= r0 * r0
    hat = float((in_j & ~in_0).mean())
    se = math.sqrt(hat * (1 - hat) / m)
    assert gauss.k_excess(t, rho, inp) == pytest.approx(hat, abs=3.5 * se)


def test_gamma_cap_unbounded_is_one():
    assert gauss.gamma_cap(0.7, GaussBoundInput(4, 0.5)) == 1.0


def test_gamma_cap_limits_and_pieces():
    inp = GaussBoundInput(3, 0.5, rm=math.sqrt(1.5))
    assert gauss.gamma_cap(1e9, inp) == pytest.approx(1.0, abs=1e-12)
    # cross-check the volume route against the exact closed-form pieces
    t = 1.0
    r0 = math.sqrt(float(inp.radius_sq(t, 0.0)))
    r1 = math.sqrt(float(inp.radius_sq(t, inp.rm)))
    c1 = inp.scale * inp.rm
    from rdflb.geometry import BallPair, vol_diff
    from rdflb.special import unit_ball_volume

    v0 = math.exp(unit_ball_volume(3).log_value) * r0**3
    vdiff = float(vol_diff(BallPair(3, r0, c1, r1)))
    vtot = v0 + 2.0 ** (3 * 0.5) * vdiff
    rn = (vtot / math.exp(unit_ball_volume(3).log_value)) ** (1.0 / 3.0)
    r_e = min(rn, c1 + r1)
    from rdflb.special import chi2_cdf

    assert gauss.gamma_cap(t, inp) == pytest.approx(chi2_cdf(3, r_e**2), rel=1e-9)


# ---------------------------------------------------------------------------
# the split objective
# ---------------------------------------------------------------------------

def test_delta_hat_zero_split_unbounded():
    assert gauss.delta_hat(0.0, 1.0, GaussBoundInput(4, 0.5)) == 0.0


def test_delta_hat_zero_split_bounded_nonnegative():
    inp = GaussBoundInput(4, 0.5, rm=math.sqrt(2.0))
    v = gauss.delta_hat(0.0, 1.0, inp)
    assert v >= 0.0
    # independent of the codeword norm at mu0 = 0
    assert gauss.delta_hat(0.0, 0.3, inp) == pytest.approx(v, rel=1e-12)


def test_delta_hat_against_direct_quadrature():
    # independent evaluation through the scalar pieces and the generic
    # adaptive integrator
    from rdflb.quadrature import Quadrature, integrate
    from rdflb.special import exp_gap_inverse

    inp = GaussBoundInput(4, 0.5, rm=math.sqrt(2.0))
    mu0, r = 0.5, 1.0
    q = 2.0 ** (4 * 0.5)

    def first(mu):
        t = exp_gap_inverse(mu)
        qk = min(1.0, q * gauss.k_excess(t, r, inp))
        return max(0.0, 1.0 - gauss.k0(t, inp) - qk)

    def second(mu):
        t = exp_gap_inverse(mu)
        return 1.0 - gauss.gamma_cap(t, inp)

    want = integrate(first, 0.0, mu0, Quadrature(1e-9, 1e-12, 38))
    want += integrate(second, mu0, 60.0, Quadrature(1e-9, 1e-12, 38))
    assert gauss.delta_hat(mu0, r, inp) == pytest.approx(want, rel=5e-4)


def test_delta_hat_domain():
    inp = GaussBoundInput(4, 0.5, rm=1.0)
    with pytest.raises(ValueError):
        gauss.delta_hat(0.5, 2.0, inp)  # r beyond the codeword bound
    with pytest.raises(ValueError):
        gauss.delta_hat(-1.0, 0.5, inp)


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------

def test_lower_bound_dominates_asymptote():
    for n in (4, 16, 64):
        assert gauss.lower_bound(GaussBoundInput(n, 0.5)) >= 0.5 - 1e-12


def test_lower_bound_bounded_vs_unbounded():
    n = 64
    unb = gauss.lower_bound(GaussBoundInput(n, 0.5))
    bnd = gauss.lower_bound(GaussBoundInput(n, 0.5, rm=math.sqrt(0.5 * n)))
    assert bnd >= unb - 1e-9


def test_lower_bound_inner_inf_property():
    # the refined sup-inf value cannot exceed the objective at any sampled r
    inp = GaussBoundInput(24, 0.5)
    bound, val, mu0, _ = gauss.lower_bound_detail(inp)
    rng = np.random.default_rng(3)
    r_cap = 10.0 * math.sqrt(24 * 0.5)
    for r in rng.uniform(0.0, r_cap, 60):
        assert val <= gauss.delta_hat(mu0, float(r), inp) + 1e-6


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------

def test_upper_unbounded_tail_and_eps_pieces():
    # moment identity for the tail: E[(|x|^2/n) 1{|x|^2 > a}] = sigma2 Q_{n+2}(a)
    n, s2, delta = 100, 1.0, 0.5
    a = n * (s2 + delta)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((400_000, n))
    r2 = (x**2).sum(axis=1)
    hat = float(np.where(r2 > a, r2 / n, 0.0).mean())
    want = s2 * float(reg_gamma_upper(0.5 * (n + 2), 0.5 * a / s2))
    assert want == pytest.approx(hat, abs=4e-4)


def test_upper_bounds_sandwich_lower():
    for n in (16, 64, 128):
        inp = GaussBoundInput(n, 0.5)
        assert gauss.upper_bound_unbounded(inp).value >= gauss.lower_bound(inp)


@pytest.mark.parametrize("n", [16, 128])
def test_quantile_deep_hits_budget(n):
    # the per-node threshold lands on ln p0, never below it (the valid
    # side of the upper bound), cold-started and warm-started in
    # increasing lambda as upper_bound_unbounded runs it
    inp = GaussBoundInput(n, 0.5)
    log_p0 = gauss._log_budget(inp)
    mv = inp.sigma2 - inp.dstar
    lo, hi = gauss._source_window(n, inp.sigma2, n * (inp.sigma2 + inp.delta))
    x_warm = None
    for lam in np.linspace(lo, hi, 12) / mv:
        lam = float(lam)
        x_cold = gauss._quantile_deep(n, lam, log_p0)
        x_warm = gauss._quantile_deep(n, lam, log_p0, x_warm)
        for x in (x_cold, x_warm):
            res = noncentral_chi2_log_cdf(n, lam, x) - log_p0
            assert abs(res) <= 1e-10
            assert res >= 0.0


def test_upper_bounded_reduces_to_unbounded():
    n = 64
    ub = gauss.upper_bound_unbounded(GaussBoundInput(n, 0.5)).value
    bd = gauss.upper_bound_bounded(GaussBoundInput(n, 0.5, rm=200.0)).value
    assert bd == pytest.approx(ub, rel=1e-6)


def test_truncated_nearest_prob_concentric():
    # P(|y - x|^2 <= t^2) at x = 0 equals CDF(t^2/(s2-D)) / C_m
    from rdflb.gauss import _log_prob_intersect_batch
    from rdflb.special import chi2_cdf, log_reg_gamma_lower

    n, mv, rm, t = 6, 0.5, 1.4, 1.0
    cm = math.exp(float(log_reg_gamma_lower(0.5 * n, 0.5 * rm**2 / mv)))
    got = math.exp(float(_log_prob_intersect_batch(n, rm, np.array([0.0]), np.array([t]), mv)[0])) / cm
    assert got == pytest.approx(chi2_cdf(n, t * t / mv) / cm, rel=1e-10)


def test_truncated_nearest_prob_monte_carlo():
    # codewords from N(0, (s2-D) I) conditioned on |y| <= rm
    from rdflb.gauss import _log_prob_intersect_batch

    n, mv, rm = 4, 0.5, math.sqrt(2.0)
    rng = np.random.default_rng(77)
    m = 2_000_000
    y = rng.normal(0.0, math.sqrt(mv), size=(m, n))
    keep = (y**2).sum(axis=1) <= rm * rm
    y = y[keep]
    x = np.array([0.9, 0.0, 0.0, 0.0])
    for t in (0.6, 1.2, 2.0):
        hat = float((((y - x) ** 2).sum(axis=1) <= t * t).mean())
        se = math.sqrt(max(hat * (1 - hat), 1e-12) / y.shape[0])
        cm_log = float(
            __import__("rdflb.special", fromlist=["log_reg_gamma_lower"]).log_reg_gamma_lower(
                0.5 * n, 0.5 * rm**2 / mv
            )
        )
        got = math.exp(
            float(_log_prob_intersect_batch(n, rm, np.array([0.9]), np.array([t]), mv)[0]) - cm_log
        )
        assert got == pytest.approx(hat, abs=4 * se)


def test_upper_bound_requires_q_at_least_three():
    with pytest.raises(ValueError):
        gauss.upper_bound_unbounded(GaussBoundInput(2, 0.5))


def test_input_validation():
    with pytest.raises(ValueError):
        GaussBoundInput(1, 0.5)
    with pytest.raises(ValueError):
        GaussBoundInput(4, -0.5)
    with pytest.raises(ValueError):
        GaussBoundInput(4, 0.5, eps=1.5)
    with pytest.raises(ValueError):
        gauss.upper_bound_bounded(GaussBoundInput(8, 0.5))  # rm missing
