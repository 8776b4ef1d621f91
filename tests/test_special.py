import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdflb import special as sp
from rdflb.quadrature import bracket_solve


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
    assert sp.binary_entropy(0.11) == pytest.approx(want, rel=1e-14, abs=0)


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


def test_inverse_entropy_tiny_entropies():
    # a fixed 100 halvings of [0, 1/2] cannot resolve q below 2^-101: at
    # h = 1e-30 they returned q = 1.97e-31, where H(q) = 2.0e-29
    for h in np.logspace(-300, 0, 601).tolist():
        q = sp.inverse_binary_entropy(h)
        assert abs(sp.binary_entropy(q) / h - 1.0) <= 1e-13


def test_inverse_entropy_matches_the_fixed_halvings_for_normal_h():
    def hundred_halvings(h):
        lo, hi = 0.0, 0.5
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if sp.binary_entropy(mid) < h:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for h in (*np.logspace(-10, -1, 91).tolist(), *np.linspace(0.01, 0.99, 99).tolist(), 1.0 - 1e-9):
        assert sp.inverse_binary_entropy(h) == hundred_halvings(h)


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
    assert sp.reg_gamma_lower(1.0, 0.0) == 0.0
    assert sp.reg_gamma_lower(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)
    assert sp.reg_gamma_lower(2.0, 5e8) == pytest.approx(1.0, abs=1e-15)


def test_chi2_cdf_monotone_grid():
    for n in (1, 2, 5, 40):
        vals = [sp.reg_gamma_lower(0.5 * n, 0.5 * x) for x in np.linspace(0.0, 8.0 * n, 60)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0


# ---------------------------------------------------------------------------
# noncentral chi-squared
# ---------------------------------------------------------------------------

def test_noncentral_reduces_to_central():
    for n in (1, 3, 10, 200):
        for x in (0.1, float(n), 3.0 * n):
            want = sp.reg_gamma_lower(0.5 * n, 0.5 * x)
            assert math.exp(sp.noncentral_chi2_log_cdf(n, 0.0, x)) == pytest.approx(want, rel=1e-12)


def test_noncentral_zero_argument():
    assert math.exp(sp.noncentral_chi2_log_cdf(3, 5.0, 0.0)) == 0.0


def test_noncentral_monte_carlo():
    # ||Z + mu||^2 with Z ~ N(0, I_2), noncentrality 1, threshold 3
    m = 2_000_000
    rng = np.random.default_rng(123)
    z = rng.standard_normal((m, 2))
    z[:, 0] += 1.0
    hat = ((z**2).sum(axis=1) <= 3.0).mean()
    se = math.sqrt(hat * (1 - hat) / m)
    assert math.exp(sp.noncentral_chi2_log_cdf(2, 1.0, 3.0)) == pytest.approx(hat, abs=3 * se)


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
        assert math.exp(sp.noncentral_chi2_log_cdf(n, lam, x)) == pytest.approx(want, rel=1e-8)


def test_noncentral_monotone_and_limits():
    for (n, lam) in [(2, 1.0), (6, 11.0)]:
        hi = n + lam + 20.0 * math.sqrt(2 * n + 4 * lam)
        vals = [math.exp(sp.noncentral_chi2_log_cdf(n, lam, x)) for x in np.linspace(0, hi, 50)]
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


def test_noncentral_log_cdf_vectorized_matches_scalar_and_scipy():
    from scipy.stats import ncx2

    n = 64
    lam = np.array([0.0, 0.3, 5.0, 60.0, 60.0, 400.0, 3000.0])
    x = np.array([10.0, 64.0, 2.0, 90.0, 0.0, 500.0, 2500.0])
    got = sp.noncentral_chi2_log_cdf(n, lam, x)
    assert got.shape == lam.shape
    scalar = [sp.noncentral_chi2_log_cdf(n, lm, xk) for lm, xk in zip(lam, x)]
    assert all(isinstance(v, float) for v in scalar)
    # a lane padded to the longest lane's terms sums in another order: a few ulps
    np.testing.assert_allclose(got, scalar, rtol=1e-14, atol=0.0)
    assert got[4] == -math.inf
    live = x > 0
    np.testing.assert_allclose(got[live], ncx2.logcdf(x[live], n, lam[live]), rtol=1e-9)
    # broadcasting, and more lanes x terms than one block holds
    grid = sp.noncentral_chi2_log_cdf(n, lam[:, None], x[None, 1:4])
    assert grid.shape == (lam.size, 3)
    assert grid[6, 2] == pytest.approx(sp.noncentral_chi2_log_cdf(n, 3000.0, 90.0), rel=1e-14)
    big = sp.noncentral_chi2_log_cdf(n, np.full(600, 3000.0), np.linspace(1500.0, 3500.0, 600))
    assert big[-1] == pytest.approx(sp.noncentral_chi2_log_cdf(n, 3000.0, 3500.0), rel=1e-14)
    with pytest.raises(ValueError):
        sp.noncentral_chi2_log_cdf(n, np.array([1.0, -1.0]), 2.0)


def _quantile(n, lam, p0):
    # x with ln CDF(x) >= ln p0, on the bracket of the unbounded Gaussian
    # upper bound's radius solve, [0, n + lam + 10 sqrt(2n + 4 lam) + 10]
    def gap(x, _lanes):
        return sp.noncentral_chi2_log_cdf(n, lam, x) - math.log(p0)

    hi = n + lam + 10.0 * math.sqrt(2.0 * n + 4.0 * lam) + 10.0
    return float(bracket_solve(gap, 0.0, hi)[0])


def test_quantile_roundtrips():
    assert _quantile(2, 0.0, 1.0 - math.exp(-1.0)) == pytest.approx(2.0, rel=1e-10)
    for (n, lam, x) in [(4, 2.0, 3.0), (30, 10.0, 25.0)]:
        p = math.exp(sp.noncentral_chi2_log_cdf(n, lam, x))
        back = _quantile(n, lam, p)
        assert back == pytest.approx(x, rel=1e-8)
    q = _quantile(5, 3.0, 0.5)
    assert math.exp(sp.noncentral_chi2_log_cdf(5, 3.0, q)) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(ValueError):
        _quantile(5, 3.0, 1.5)


def test_quantile_deep_tail():
    # CDF residual checked in the log domain where doubles cannot reach
    n, lam, p0 = 1000, 3000.0, 1e-150
    x = _quantile(n, lam, p0)
    res = sp.noncentral_chi2_log_cdf(n, lam, x) - math.log(p0)
    assert 0.0 <= res <= 1e-10


# ---------------------------------------------------------------------------
# hyperspherical areas
# ---------------------------------------------------------------------------

def test_unit_sphere_and_ball():
    assert sp.log_unit_sphere_area(2) == pytest.approx(math.log(2 * math.pi), rel=1e-15)
    assert sp.log_unit_ball_volume(3) == pytest.approx(math.log(4 * math.pi / 3), rel=1e-15)
    want = float(mpmath.log(mpmath.pi ** mpmath.mpf(50) / mpmath.gamma(51)))
    assert sp.log_unit_ball_volume(100) == pytest.approx(want, rel=1e-12)


def test_cone_area_closed_forms():
    # Omega_3(theta) = 2 pi (1 - cos theta)
    assert sp.log_cone_area(3, 0.0) == pytest.approx(math.log(2 * math.pi), rel=1e-12)
    assert sp.log_cone_area(3, -1.0) == pytest.approx(math.log(4 * math.pi), rel=1e-12)
    assert sp.log_cone_area(3, 0.4) == pytest.approx(math.log(2 * math.pi * 0.6), rel=1e-10)
    # Omega_2(theta) = 2 theta (arc length)
    assert sp.log_cone_area(2, math.cos(1.0)) == pytest.approx(math.log(2.0), rel=1e-10)
    assert sp.log_cone_area(4, 1.0) == -math.inf


@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 2000])
def test_cone_area_full_sphere(n):
    assert sp.log_cone_area(n, -1.0) == pytest.approx(sp.log_unit_sphere_area(n), rel=1e-10)


def test_cone_area_monotone_and_domain():
    for n in (2, 7, 300):
        vals = sp.log_cone_area(n, np.linspace(1.0 - 1e-6, -1.0, 40))
        assert np.all(np.diff(vals) >= 0)
    for bad in (1.5, -1.0 - 1e-12):
        with pytest.raises(ValueError):
            sp.log_cone_area(5, bad)


def _mp_log_cap_fraction(n, cos):
    # Omega_n / A_n = (1/2) I_{sin^2}((n-1)/2, 1/2), folded back below cos = 0;
    # sin^2 is taken exactly at the double cosine
    with mpmath.workdps(40):
        c = mpmath.mpf(cos)
        i = mpmath.betainc(mpmath.mpf(n - 1) / 2, 0.5, 0, (1 - c) * (1 + c), regularized=True)
        return mpmath.log(i / 2 if c >= 0 else 1 - i / 2)


def _mp_log_cap(n, cos):
    with mpmath.workdps(40):
        log_area = mpmath.log(2) + (mpmath.mpf(n) / 2) * mpmath.log(mpmath.pi) - mpmath.loggamma(mpmath.mpf(n) / 2)
        return float(log_area + _mp_log_cap_fraction(n, cos))


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
    c = math.cos(1.569041)
    assert sp.log_cone_area(64, c) == pytest.approx(_mp_log_cap(64, c), rel=0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 64, 1000, 4096])
def test_cone_area_vs_mpmath(n):
    # both ends to the last double, both sides of the switch between the
    # sin^2 and cos^2 forms at cos^2 = 1/n, and both sides of the hemisphere,
    # where sin^2 rounds to 1; the log area reaches -1.1e4 at n = 4096, so
    # 1e-15 relative is a few of its last bits and 1e-12 the floor
    cosines = [1.0 - 2.0**-52, 1.0 - 2.0**-40, 1.0 / math.sqrt(n) + 1e-12, 1.0 / math.sqrt(n) - 1e-12,
               0.00175, 1e-9, 0.0, -1e-9, -0.9, -1.0 + 2.0**-52, 1.0, -1.0]
    got = sp.log_cone_area(n, np.array(cosines))
    frac = sp.log_cap_fraction(n, np.array(cosines))
    for c, g, f in zip(cosines, got, frac):
        want, want_frac = _mp_log_cap(n, c), float(_mp_log_cap_fraction(n, c))
        if want == -math.inf:
            assert g == -math.inf and f == -math.inf
        else:
            assert g == pytest.approx(want, rel=1e-15, abs=1e-12), c
            assert f == pytest.approx(want_frac, rel=1e-15, abs=1e-12), c
    # the area is ln A_n plus the fraction, to the rounding of that one sum
    assert got.tolist() == (frac + sp.log_unit_sphere_area(n)).tolist()
    # a cap and the cap of the opposite cosine tile the sphere: F(c) + F(-c) = 1.
    # Just above the switch at cos^2 = 1/n (lane 2) the sin^2 form carries the
    # rounding of sin^2 = (1 - cos)(1 + cos), amplified about n/2 times (5e-13
    # in F at n = 4096, where the cos^2 form is good to 1e-16)
    tile = np.logaddexp(frac, sp.log_cap_fraction(n, -np.array(cosines)))
    assert np.abs(np.delete(tile, 2)).max() <= 1e-15
    assert abs(tile[2]) <= n * 2.0**-52


def test_cone_area_vs_quadrature():
    # independent oracle: direct adaptive quadrature of sin^{n-2}
    from scipy.integrate import quad

    for (n, th) in [(6, 0.4), (11, 2.0), (41, 1.2)]:
        raw = quad(lambda p: math.sin(p) ** (n - 2), 0.0, th, epsabs=1e-16, epsrel=1e-12, limit=200)[0]
        want = math.log(raw) + math.log(2.0) + 0.5 * (n - 1) * math.log(math.pi) - float(
            mpmath.log(mpmath.gamma((n - 1) / 2))
        )
        assert sp.log_cone_area(n, math.cos(th)) == pytest.approx(want, rel=1e-9)


def test_ball_volume():
    assert sp.log_ball_volume(3, 2.0) == pytest.approx(math.log(4 * math.pi / 3 * 8.0), rel=1e-15)
    got = sp.log_ball_volume(5, np.array([0.0, -1.0, 1.0]))
    assert got.tolist() == [-math.inf, -math.inf, sp.log_unit_ball_volume(5)]
