import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdflb import special as sp


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------

def test_binary_entropy_endpoints_exact():
    assert sp.binary_entropy(0.5) == 1.0
    assert sp.binary_entropy(0.0) == 0.0
    assert sp.binary_entropy(1.0) == 0.0


def test_binary_entropy_value():
    # cross-checked with 50-digit arithmetic
    want = float(-(mpmath.mpf("0.11") * mpmath.log(mpmath.mpf("0.11"), 2)
                   + mpmath.mpf("0.89") * mpmath.log(mpmath.mpf("0.89"), 2)))
    assert sp.binary_entropy(0.11) == pytest.approx(want, rel=1e-14)


def test_inverse_binary_entropy():
    assert sp.inverse_binary_entropy(1.0) == 0.5
    assert sp.inverse_binary_entropy(0.0) == 0.0
    q = sp.inverse_binary_entropy(0.5)
    assert abs(sp.binary_entropy(q) - 0.5) <= 1e-12
    assert q == pytest.approx(0.110027864, abs=1e-8)
    with pytest.raises(ValueError):
        sp.inverse_binary_entropy(1.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-9))
def test_inverse_entropy_residual(h):
    q = sp.inverse_binary_entropy(h)
    assert 0.0 <= q <= 0.5
    assert abs(sp.binary_entropy(q) - h) <= 1e-12


# ---------------------------------------------------------------------------
# incomplete gamma / chi-squared
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "a,x",
    [(0.5, 0.2), (1.0, 1e-12), (2.0, 2.0), (50.0, 10.0), (50.0, 200.0), (500.0, 480.0), (500.0, 520.0)],
)
def test_reg_gamma_vs_mpmath(a, x):
    want = float(mpmath.gammainc(a, 0, x, regularized=True))
    assert sp.reg_gamma_lower(a, x) == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert sp.reg_gamma_upper(a, x) == pytest.approx(1.0 - want, rel=1e-10, abs=1e-15)


def test_log_reg_gamma_deep_tail():
    # relative accuracy far below double underflow of the linear value
    a, x = 500.0, 20.0
    want = mpmath.log(mpmath.gammainc(a, 0, x, regularized=True))
    assert sp.log_reg_gamma_lower(a, x) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("a", [0.5, 32.0, 1000.0, 5000.0])
def test_log_reg_gamma_lower_vs_mpmath(a):
    # from far below double underflow of P up to the median; points on both
    # sides of the switch from gammainc to the 1F1 form (at a = 1/2 no
    # double x reaches the switch)
    xs = [1e-200, 1e-100, 1e-30, 1e-8, 1e-3] + [f * a for f in (0.02, 0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 1.0)]
    linear = sp.reg_gamma_lower(a, np.array(xs))
    assert np.any(linear >= sp._TINY)
    assert a < 1.0 or np.any(linear < sp._TINY)
    for x in xs:
        want = float(mpmath.log(mpmath.gammainc(a, 0, x, regularized=True)))
        assert sp.log_reg_gamma_lower(a, x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_chi2_cdf_closed_forms():
    assert sp.chi2_cdf(2, 0.0) == 0.0
    assert sp.chi2_cdf(2, 2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)
    assert sp.chi2_cdf(4, 1e9) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        sp.chi2_cdf(0, 1.0)
    with pytest.raises(ValueError):
        sp.chi2_cdf(2, -1.0)


def test_chi2_cdf_monotone_grid():
    for n in (1, 2, 5, 40):
        vals = [sp.chi2_cdf(n, x) for x in np.linspace(0.0, 8.0 * n, 60)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0


# ---------------------------------------------------------------------------
# noncentral chi-squared
# ---------------------------------------------------------------------------

def test_noncentral_reduces_to_central():
    for n in (1, 3, 10, 200):
        for x in (0.1, float(n), 3.0 * n):
            assert sp.noncentral_chi2_cdf(n, 0.0, x) == pytest.approx(sp.chi2_cdf(n, x), rel=1e-12)


def test_noncentral_zero_argument():
    assert sp.noncentral_chi2_cdf(3, 5.0, 0.0) == 0.0


def test_noncentral_monte_carlo():
    # ||Z + mu||^2 with Z ~ N(0, I_2), noncentrality 1, threshold 3
    m = 2_000_000
    rng = np.random.default_rng(123)
    z = rng.standard_normal((m, 2))
    z[:, 0] += 1.0
    hat = ((z**2).sum(axis=1) <= 3.0).mean()
    se = math.sqrt(hat * (1 - hat) / m)
    assert sp.noncentral_chi2_cdf(2, 1.0, 3.0) == pytest.approx(hat, abs=3 * se)


def test_noncentral_vs_mpmath_series():
    # brute Poisson mixture in 50-digit arithmetic
    def oracle(n, lam, x):
        with mpmath.workdps(50):
            h = mpmath.mpf(lam) / 2
            total = mpmath.mpf(0)
            for i in range(0, 400):
                w = mpmath.e ** (-h) * h**i / mpmath.factorial(i)
                total += w * mpmath.gammainc(mpmath.mpf(n) / 2 + i, 0, mpmath.mpf(x) / 2, regularized=True)
            return float(total)

    for (n, lam, x) in [(2, 1.0, 3.0), (5, 3.0, 2.0), (10, 30.0, 20.0), (7, 0.5, 40.0)]:
        want = oracle(n, lam, x)
        assert sp.noncentral_chi2_cdf(n, lam, x) == pytest.approx(want, rel=1e-8)


def test_noncentral_monotone_and_limits():
    for (n, lam) in [(2, 1.0), (6, 11.0)]:
        hi = n + lam + 20.0 * math.sqrt(2 * n + 4 * lam)
        vals = [sp.noncentral_chi2_cdf(n, lam, x) for x in np.linspace(0, hi, 50)]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0
        assert vals[-1] > 1 - 1e-6


def test_noncentral_large_dof_vs_scipy():
    # large n + lambda still takes the exact mixture: a normal approximation
    # (Sankaran's) reads -540.316 here, 0.11 nats too high
    from scipy.stats import ncx2

    n, lam = 200_000, 10.0
    x = 0.9 * (n + lam)
    want = float(ncx2.logcdf(x, n, lam))
    assert sp.noncentral_chi2_log_cdf(n, lam, x) == pytest.approx(want, rel=1e-9)


def test_quantile_roundtrips():
    assert sp.noncentral_chi2_quantile(2, 0.0, 1.0 - math.exp(-1.0)) == pytest.approx(2.0, rel=1e-10)
    for (n, lam, x) in [(4, 2.0, 3.0), (30, 10.0, 25.0)]:
        p = sp.noncentral_chi2_cdf(n, lam, x)
        back = sp.noncentral_chi2_quantile(n, lam, p)
        assert back == pytest.approx(x, rel=1e-8)
    q = sp.noncentral_chi2_quantile(5, 3.0, 0.5)
    assert sp.noncentral_chi2_cdf(5, 3.0, q) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(ValueError):
        sp.noncentral_chi2_quantile(5, 3.0, 1.5)


def test_quantile_deep_tail():
    # CDF residual checked in the log domain where doubles cannot reach
    n, lam, p0 = 1000, 3000.0, 1e-150
    x = sp.noncentral_chi2_quantile(n, lam, p0)
    assert sp.noncentral_chi2_log_cdf(n, lam, x) == pytest.approx(math.log(p0), abs=1e-8)


# ---------------------------------------------------------------------------
# inverse of t - 1 + exp(-t)
# ---------------------------------------------------------------------------

def test_exp_gap_inverse_examples():
    assert sp.exp_gap_inverse(0.0) == 0.0
    assert sp.exp_gap_inverse(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
    assert sp.exp_gap_inverse(99.0) == pytest.approx(100.0, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e4))
def test_exp_gap_roundtrip_and_monotone(mu):
    t = sp.exp_gap_inverse(mu)
    assert t >= 0.0
    assert t + math.expm1(-t) == pytest.approx(mu, rel=1e-12, abs=1e-12)
    t2 = sp.exp_gap_inverse(mu + 0.1)
    assert t2 > t


# ---------------------------------------------------------------------------
# hyperspherical areas
# ---------------------------------------------------------------------------

def test_unit_sphere_and_ball():
    assert sp.unit_sphere_area(2).log_value == pytest.approx(math.log(2 * math.pi), rel=1e-15)
    assert sp.unit_ball_volume(3).log_value == pytest.approx(math.log(4 * math.pi / 3), rel=1e-15)
    want = float(mpmath.log(mpmath.pi ** mpmath.mpf(50) / mpmath.gamma(51)))
    assert sp.unit_ball_volume(100).log_value == pytest.approx(want, rel=1e-12)


def test_cone_area_closed_forms():
    # Omega_3(theta) = 2 pi (1 - cos theta)
    assert sp.cone_area(3, math.pi / 2).log_value == pytest.approx(math.log(2 * math.pi), rel=1e-12)
    assert sp.cone_area(3, math.pi).log_value == pytest.approx(math.log(4 * math.pi), rel=1e-12)
    assert sp.cone_area(3, 1.1).log_value == pytest.approx(
        math.log(2 * math.pi * (1 - math.cos(1.1))), rel=1e-10
    )
    # Omega_2(theta) = 2 theta (arc length)
    assert sp.cone_area(2, 1.0).log_value == pytest.approx(math.log(2.0), rel=1e-10)
    assert sp.cone_area(4, 0.0).is_zero


@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 2000])
def test_cone_area_full_sphere(n):
    assert sp.cone_area(n, math.pi).log_value == pytest.approx(
        sp.unit_sphere_area(n).log_value, rel=1e-10
    )


def test_cone_area_monotone_and_domain():
    for n in (2, 7, 300):
        vals = [sp.cone_area(n, t).log_value for t in np.linspace(1e-3, math.pi, 40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        sp.cone_area(5, 3.5)


def _mp_log_cap(n, theta):
    # Omega_n = (A_n / 2) I_{sin^2}((n-1)/2, 1/2), folded back past pi/2
    with mpmath.workdps(40):
        th = mpmath.mpf(theta)
        a = mpmath.mpf(n - 1) / 2
        i = mpmath.betainc(a, 0.5, 0, mpmath.sin(th) ** 2, regularized=True)
        log_half = (mpmath.mpf(n) / 2) * mpmath.log(mpmath.pi) - mpmath.loggamma(mpmath.mpf(n) / 2)
        return float(log_half + mpmath.log(i if th <= mpmath.pi / 2 else 2 - i))


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_log_reg_inc_beta_vs_mpmath(n):
    # the cap-area parameters; points on both sides of the switch from
    # betainc to the 2F1 form
    from scipy.special import betainc

    a = 0.5 * (n - 1)
    xs = [1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99]
    linear = betainc(a, 0.5, np.array(xs))
    assert np.any(linear < sp._TINY) and np.any(linear >= sp._TINY)
    got = sp.log_reg_inc_beta(a, 0.5, np.array(xs))
    for x, g in zip(xs, got):
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.betainc(a, 0.5, 0, x, regularized=True)))
        assert g == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_cone_area_near_half_sphere():
    # just below pi/2, where sin^2 theta rounds near 1 and the integrand
    # sin^(n-2) is flat: an understated cap here makes the converse too high
    assert sp.log_cone_area(64, 1.569041) == pytest.approx(_mp_log_cap(64, 1.569041), rel=0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 64, 1000])
def test_cone_area_vs_mpmath(n):
    thetas = [1e-8, 1e-3, 0.3, 1.0, 1.5, math.pi / 2, 1.6, 2.5, 3.1, math.pi]
    got = sp.log_cone_area(n, np.array(thetas))
    for th, g in zip(thetas, got):
        assert g == pytest.approx(_mp_log_cap(n, th), rel=1e-12, abs=1e-12)


def test_cone_area_vs_quadrature():
    # independent oracle: direct high-resolution quadrature of sin^{n-2}
    from rdflb.quadrature import Quadrature, integrate

    for (n, th) in [(6, 0.4), (11, 2.0), (41, 1.2)]:
        raw = integrate(lambda p: math.sin(p) ** (n - 2), 0.0, th, Quadrature(1e-12, 1e-16, 45))
        want = math.log(raw) + math.log(2.0) + 0.5 * (n - 1) * math.log(math.pi) - float(
            mpmath.log(mpmath.gamma((n - 1) / 2))
        )
        assert sp.cone_area(n, th).log_value == pytest.approx(want, rel=1e-9)
