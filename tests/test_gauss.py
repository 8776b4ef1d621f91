import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdflb import gauss, geometry
from rdflb.gauss import GaussBoundInput
from rdflb.geometry import log_prob_intersect_batch, log_shell_mass_batch
from rdflb.quadrature import bracket_solve, gl_panels, gl_partial
from rdflb.special import (
    log_cone_area,
    log_reg_gamma_lower,
    noncentral_chi2_log_cdf,
    reg_gamma_lower,
    reg_gamma_upper,
)


INP2 = GaussBoundInput(2, 0.5)


# ---------------------------------------------------------------------------
# pointwise readings of the converse's pieces, for the tests below
# ---------------------------------------------------------------------------

def _k0(t: float, inp: GaussBoundInput) -> float:
    """Gaussian mass of the origin ball C0(t)."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    return reg_gamma_lower(0.5 * inp.n, 0.5 * float(inp.radius_sq(t, 0.0)) / inp.sigma2)


def _k_excess(t: float, rho: float, inp: GaussBoundInput) -> float:
    """P(C_j(t) \\ C0(t)) for a codeword of norm rho."""
    if t < 0 or rho < 0:
        raise ValueError("need t >= 0 and rho >= 0")
    return min(1.0, math.exp(float(gauss._log_k_excess(inp, rho, np.array([float(t)]))[0])))


def _gamma_cap(t: float, inp: GaussBoundInput) -> float:
    """Volume-based cap Gamma_n(t) on the captured mass; 1 when unbounded."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    if inp.rm is None:
        return 1.0
    log_re = float(np.minimum(*gauss._log_gamma_radii(inp, np.array([float(t)])))[0])
    return reg_gamma_lower(0.5 * inp.n, 0.5 * math.exp(2.0 * log_re) / inp.sigma2)


def _exp_gap_inverse(mu: float) -> float:
    """The unique t >= 0 with t - 1 + exp(-t) = mu, the t at which the
    converse's measure dmu = (1 - e^-t) dt reaches mu (Newton; the map is
    convex increasing)."""
    if mu < 0:
        raise ValueError(f"argument must be >= 0, got {mu}")
    mu = np.asarray([mu], dtype=float)
    t = np.where(mu < 1.0, np.sqrt(2.0 * mu), mu + 1.0)
    for _ in range(80):
        # f(t) = t + expm1(-t) - mu, f'(t) = -expm1(-t)
        f = t + np.expm1(-t) - mu
        fp = -np.expm1(-t)
        step = np.where(fp > 0, f / np.where(fp > 0, fp, 1.0), 0.0)
        step = np.clip(step, -1.0, t)  # keep t >= 0
        t = t - step
        if np.all(np.abs(f) <= 1e-13 * np.maximum(1.0, mu) + 1e-300):
            break
    return float(np.where(mu == 0.0, 0.0, t)[0])


def _delta_hat(mu0: float, r: float, inp: GaussBoundInput) -> float:
    """The split objective: captured-mass integral up to mu0 for norm-r
    codewords plus the volume-cap tail beyond mu0, in nats."""
    if mu0 < 0 or r < 0:
        raise ValueError("need mu0 >= 0 and r >= 0")
    if inp.rm is not None and r > inp.rm:
        raise ValueError(f"r exceeds the codeword bound: {r} > {inp.rm}")
    t_end = gauss._table(inp.n, inp.rate, inp.sigma2).t_end
    rho = np.array([float(r)])
    t0 = min(_exp_gap_inverse(mu0), t_end)
    lanes = gauss._lane_panels(inp, rho, gauss._crossing(inp, rho, t_end), cuts=[t0])
    tail = None
    if inp.rm is not None:
        anchors = gauss._tail_anchors(inp, np.geomspace(1e-4 * t_end, t_end, gauss._SPLITS))
        tail = gauss._tail(inp, t_end, anchors, gauss._TAIL_PANELS)
    return float((lanes.at([t0]) + gauss._tail_above(tail, [t0]))[0, 0])


# ---------------------------------------------------------------------------
# pointwise pieces
# ---------------------------------------------------------------------------

def test_exp_gap_inverse_examples():
    assert _exp_gap_inverse(0.0) == 0.0
    assert _exp_gap_inverse(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
    assert _exp_gap_inverse(99.0) == pytest.approx(100.0, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e4))
def test_exp_gap_roundtrip_and_monotone(mu):
    t = _exp_gap_inverse(mu)
    assert t >= 0.0
    assert t + math.expm1(-t) == pytest.approx(mu, rel=1e-12, abs=1e-12)
    t2 = _exp_gap_inverse(mu + 0.1)
    assert t2 > t


def test_k0_closed_form():
    # sigma2=1, R=1/2: D=1/2, R(t,0) = 2t, so K0(1) = CDF_chi2(2) at 2
    assert _k0(0.0, INP2) == 0.0
    assert _k0(1.0, INP2) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12, abs=0)
    assert _k0(1e6, INP2) == pytest.approx(1.0, abs=1e-14)


def test_k_excess_zero_norm():
    assert _k_excess(1.0, 0.0, INP2) == 0.0


def test_k_excess_disjoint_is_full_ball():
    inp = GaussBoundInput(4, 0.5)
    t, rho = 0.01, 30.0
    want = math.exp(noncentral_chi2_log_cdf(4, (inp.scale * rho) ** 2, float(inp.radius_sq(t, rho))))
    assert _k_excess(t, rho, inp) == pytest.approx(want, rel=1e-6)


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
    assert _k_excess(t, rho, inp) == pytest.approx(hat, abs=3.5 * se)


def test_gamma_cap_unbounded_is_one():
    assert _gamma_cap(0.7, GaussBoundInput(4, 0.5)) == 1.0


def test_gamma_cap_limits_and_pieces():
    inp = GaussBoundInput(3, 0.5, rm=math.sqrt(1.5))
    assert _gamma_cap(1e9, inp) == pytest.approx(1.0, abs=1e-12)
    # cross-check the volume route against the closed-form 3-D lens volume
    t = 1.0
    r0 = math.sqrt(float(inp.radius_sq(t, 0.0)))
    r1 = math.sqrt(float(inp.radius_sq(t, inp.rm)))
    c1 = inp.scale * inp.rm
    assert abs(r1 - r0) < c1 < r0 + r1  # a proper lens
    lens = math.pi * (r0 + r1 - c1) ** 2 * (
        c1 * c1 + 2 * c1 * (r0 + r1) - 3 * (r0 - r1) ** 2
    ) / (12 * c1)
    vdiff = 4 * math.pi / 3 * r1**3 - lens
    vtot = 4 * math.pi / 3 * r0**3 + 2.0 ** (3 * 0.5) * vdiff
    r_e = min((vtot / (4 * math.pi / 3)) ** (1.0 / 3.0), c1 + r1)
    assert _gamma_cap(t, inp) == pytest.approx(reg_gamma_lower(1.5, 0.5 * r_e**2), rel=1e-9)


# ---------------------------------------------------------------------------
# the split objective
# ---------------------------------------------------------------------------

def test_delta_hat_zero_split_unbounded():
    assert _delta_hat(0.0, 1.0, GaussBoundInput(4, 0.5)) == 0.0


def test_delta_hat_zero_split_bounded_nonnegative():
    inp = GaussBoundInput(4, 0.5, rm=math.sqrt(2.0))
    v = _delta_hat(0.0, 1.0, inp)
    assert v >= 0.0
    # independent of the codeword norm at mu0 = 0
    assert _delta_hat(0.0, 0.3, inp) == pytest.approx(v, rel=1e-12, abs=0)


def _direct_delta_hat(inp, mu0, r):
    # independent evaluation through the pointwise pieces and scipy's
    # adaptive integrator
    from scipy.integrate import quad

    q = 2.0 ** (inp.n * inp.rate)

    def first(mu):
        t = _exp_gap_inverse(mu)
        qk = min(1.0, q * _k_excess(t, r, inp))
        return max(0.0, 1.0 - _k0(t, inp) - qk)

    def second(mu):
        t = _exp_gap_inverse(mu)
        return 1.0 - _gamma_cap(t, inp)

    want = quad(first, 0.0, mu0, epsabs=1e-12, epsrel=1e-9, limit=200)[0]
    return want + quad(second, mu0, 400.0, epsabs=1e-12, epsrel=1e-9, limit=200)[0]


def test_delta_hat_against_direct_quadrature():
    inp = GaussBoundInput(4, 0.5, rm=math.sqrt(2.0))
    assert _delta_hat(0.5, 1.0, inp) == pytest.approx(_direct_delta_hat(inp, 0.5, 1.0), rel=1e-7)


def test_delta_hat_against_direct_quadrature_across_a_cap_kink():
    # here r_n crosses c1 + r1 at t = 1.66, inside the tail: a kink of Gamma
    inp = GaussBoundInput(8, 2.0, rm=2.0)
    assert _delta_hat(0.25, 2.0, inp) == pytest.approx(_direct_delta_hat(inp, 0.25, 2.0), rel=1e-7)


def test_delta_hat_domain():
    inp = GaussBoundInput(4, 0.5, rm=1.0)
    with pytest.raises(ValueError):
        _delta_hat(0.5, 2.0, inp)  # r beyond the codeword bound
    with pytest.raises(ValueError):
        _delta_hat(-1.0, 0.5, inp)


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------

def _class(n, alpha=None):
    """The codebook class at R = 1/2, sigma2 = 1, rm^2 = alpha n (unbounded for None)."""
    return GaussBoundInput(n, 0.5, rm=None if alpha is None else math.sqrt(alpha * n))


@lru_cache(maxsize=None)
def _detail(n, alpha=None):
    """lower_bound_detail of ``_class(n, alpha)``; shared by the tests."""
    return gauss.lower_bound_detail(_class(n, alpha))


def test_lower_bound_dominates_asymptote():
    for n in (4, 16, 64):
        assert _detail(n)[0] >= 0.5 - 1e-12


def test_lower_bound_bounded_vs_unbounded():
    assert _detail(64, 0.5)[0] >= _detail(64)[0] - 1e-9


def test_lower_bound_inner_inf_property():
    # the refined sup-inf value cannot exceed the objective at any sampled r
    inp = GaussBoundInput(24, 0.5)
    bound, val, mu0, _ = gauss.lower_bound_detail(inp)
    rng = np.random.default_rng(3)
    r_cap = 10.0 * math.sqrt(24 * 0.5)
    for r in rng.uniform(0.0, r_cap, 60):
        assert val <= _delta_hat(mu0, float(r), inp) + 1e-9


# The converse from an independent kink-anchored dense quadrature at R = 1/2,
# sigma2 = 1: t_x by brentq; A and T by 64 Gauss-Legendre panels of 16 nodes
# between consecutive kinks (t_x, the touch points of the codeword balls with
# C0, the crossing of r_n and c1 + r1); the inf over rho by a 41-point grid,
# then bounded Brent around its minimum, and the sup over the split the same
# way (scipy.optimize.brentq and minimize_scalar).  Its K_excess reads the
# shipped kernel, geometry.log_shell_mass_batch at 16 nodes per cap-shell
# panel, which agrees with 32 nodes to 6e-16 at n = 16 and 64.  At n = 256
# 16 nodes read 8.7e-10 relative high (see the xfails below), and the oracle
# shared that error; its pin there is the converse itself at 32 nodes, which
# 64 nodes reproduce to the last digit.
ORACLE_UNBOUNDED = {16: 0.5259903293481, 64: 0.5134742715095, 256: 0.5054970926011}
ORACLE_BOUNDED = {(16, 0.5): 0.526035264933, (64, 0.3): 0.520081281374, (16, 0.3): 0.528891889460}


@pytest.mark.parametrize("n", sorted(ORACLE_UNBOUNDED))
def test_lower_bound_vs_dense_oracle(n):
    want = ORACLE_UNBOUNDED[n]
    got = _detail(n)[0]
    assert got <= want * (1.0 + 1e-9)
    assert got == pytest.approx(want, abs=1e-8)
    # rm^2 = 2n leaves the optimum unconstrained, and the tail negligible
    assert _detail(n, 2.0)[0] == pytest.approx(want, abs=1e-9)


# geometry._cap_half_rows lays its u-panels by interval fractions and by the
# edge slope of the radial density alone.  Where the cap factor rises like
# u^(n-1) away from an inner tangent end, or the density peaks near the
# halves' meeting point (clipped 5% inside the cap), 16 nodes per panel have
# not converged; 32 and 64 nodes agree to 3e-13 on each value below.
SHELL_UNDER_RESOLVED = pytest.mark.xfail(strict=True, reason="16-node cap-shell panels under-resolve the shell mass")

# the unbounded converse with the shell-mass kernel at 32 nodes per panel; the
# shipped kernel reads 8.7e-10 (n = 256) and 2.8e-7 (n = 1024) relative high,
# a lower bound on its invalid side
CONVERGED_LOWER = {256: 0.5054970926011, 1024: 0.5019650014742}


@pytest.mark.parametrize("n", [pytest.param(n, marks=SHELL_UNDER_RESOLVED) for n in sorted(CONVERGED_LOWER)])
def test_lower_bound_converged_in_the_shell_nodes(n):
    assert _detail(n)[0] == pytest.approx(CONVERGED_LOWER[n], rel=1e-10, abs=0)


@pytest.mark.parametrize("n,alpha", sorted(ORACLE_BOUNDED))
def test_lower_bound_bounded_vs_dense_oracle(n, alpha):
    # these have an interior split: the sup over mu0 is not at t_end
    bound, _, mu0, _ = _detail(n, alpha)
    assert bound == pytest.approx(ORACLE_BOUNDED[(n, alpha)], rel=1e-6)
    assert mu0 < 10.0


def _assert_ends_the_support(inp, rho, tx, t_end):
    # f(t, rho) > 0 below t_x and f = 0 on a probe grid beyond it
    for r, x in zip(rho, tx):
        below = gauss._captured_density(inp, r, np.linspace(0.05, 0.999, 8) * x)
        beyond = gauss._captured_density(inp, r, x + np.geomspace(1e-6, t_end - x, 8))
        assert (below > 0.0).all() and (beyond == 0.0).all()


def test_crossing_ends_the_support_of_f():
    # the norms lie between reference norms, so each is solved on its seed
    inp = GaussBoundInput(64, 0.5)
    table = gauss._table(inp.n, inp.rate, inp.sigma2)
    rho = np.array([2.0, 5.3, 8.0])
    assert not np.isin(rho, table.grid).any()
    tx = table.crossings(rho)
    # the fine pass reads t_x as the last edge of the norm's lane
    assert np.array_equal(table.lanes(rho).last[:, 0], tx)
    _assert_ends_the_support(inp, rho, tx, table.t_end)


def test_crossing_falls_back_to_the_whole_range():
    # a norm below the first reference norm, and a lane whose seed misses its
    # crossing on either side, are solved on [0, t_end] as an unseeded lane is
    inp = GaussBoundInput(64, 0.5)
    table = gauss._table(inp.n, inp.rate, inp.sigma2)
    t_end = table.t_end
    low = np.array([0.5 * table.grid[1]])
    tx_low = table.crossings(low)
    assert np.array_equal(tx_low, gauss._crossing(inp, low, t_end))
    _assert_ends_the_support(inp, low, tx_low, t_end)
    rho = np.array([2.0, 5.3, 8.0])
    whole = gauss._crossing(inp, rho, t_end)
    for lo, hi in [(1.5 * whole, 2.0 * whole), (0.25 * whole, 0.5 * whole)]:
        tx = gauss._crossing(inp, rho, t_end, lo, hi)
        assert np.array_equal(tx, whole)
        _assert_ends_the_support(inp, rho, tx, t_end)


def test_lane_panels_in_one_batch_match_one_call_per_norm():
    # every node row of a batch goes through one shell-mass call, which
    # takes its rows in blocks; rows do not affect each other, so a lane's
    # values do not depend on the lanes laid out with it
    inp = GaussBoundInput(64, 0.5)
    rho = math.sqrt(inp.n * (inp.sigma2 - inp.dstar)) * np.linspace(0.0, 3.0, 72)
    tx = gauss._crossing(inp, rho, gauss._table(inp.n, inp.rate, inp.sigma2).t_end)
    batch = gauss._lane_panels(inp, rho, tx)
    assert batch.vals.shape[0] > 256
    one = [gauss._lane_panels(inp, rho[i : i + 1], tx[i : i + 1]).vals for i in range(rho.size)]
    assert np.array_equal(batch.vals, np.concatenate(one))


@pytest.mark.parametrize("rate", [0.1, 0.5, 2.0])
def test_t_end_leaves_at_most_e_minus_30_of_the_origin_ball(rate):
    # the converse cuts t at t_end unchecked: there |x|^2 / sigma2 sits at
    # chi2_n's point n + 12 sqrt(2n) + 60, beyond Laurent & Massart's
    # n + 2 sqrt(30 n) + 60, whose tail is at most e^-30
    for n in [*range(2, 65), 256, 1024, 4096]:
        inp = GaussBoundInput(n, rate)
        t_end = gauss._table(n, rate, 1.0).t_end
        point = n + 12.0 * math.sqrt(2.0 * n) + 60.0
        assert float(inp.radius_sq(t_end, 0.0)) == pytest.approx(point, rel=1e-14, abs=0)
        assert point >= n + 2.0 * math.sqrt(30.0 * n) + 60.0
        assert gauss._one_minus_k0(inp, t_end) <= math.exp(-30.0)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 2.0])
def test_bounded_tail_is_at_most_the_origin_ball_tail(alpha):
    # r_E = min(r_n, c1 + r1) >= r0, so 1 - Gamma <= 1 - K0 up to t_end and
    # the shared t_end serves every codebook class
    for n in (2, 4, 16, 64, 256):
        for rate in (0.1, 0.5, 2.0):
            inp = GaussBoundInput(n, rate, rm=math.sqrt(alpha * n))
            t_end = gauss._table(n, rate, 1.0).t_end
            t = np.append(0.0, np.geomspace(1e-6 * t_end, t_end, 200))
            assert (gauss._one_minus_gamma(inp, t) <= gauss._one_minus_k0(inp, t)).all()


def _cold():
    """Drop every converse table, so the next call solves all of its lanes."""
    gauss._table.cache_clear()


def _count_shell_mass(monkeypatch) -> list[int]:
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return log_shell_mass_batch(*args, **kwargs)

    monkeypatch.setattr(gauss, "log_shell_mass_batch", counted)
    return calls


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("alpha", [2.0, 0.5, 0.3])
def test_lower_bound_same_cold_or_warm_in_either_order(n, alpha):
    # the classes share their norm lanes and the reference crossings that
    # seed them; no value may depend on which ran first
    bounded, unbounded = _class(n, alpha), _class(n, None)
    _cold()
    bounded_cold = gauss.lower_bound_detail(bounded)
    unbounded_warm = gauss.lower_bound_detail(unbounded)
    _cold()
    unbounded_cold = gauss.lower_bound_detail(unbounded)
    bounded_warm = gauss.lower_bound_detail(bounded)
    assert bounded_warm == bounded_cold
    assert unbounded_warm == unbounded_cold


def test_unbounded_converse_reads_the_lanes_of_the_alpha_2_class(monkeypatch):
    # at n = 64 the alpha = 2 converse fills the one table of (n, R, sigma2)
    # with every norm lane of the unbounded converse, which cold makes about
    # 50 shell-mass calls
    _cold()
    gauss.lower_bound(_class(64, 2.0))
    calls = _count_shell_mass(monkeypatch)
    gauss.lower_bound(_class(64, None))
    assert 0 < calls[0] <= 15


def test_one_table_serves_every_class_of_n_rate_sigma2():
    # the bounded and unbounded classes at one (n, R, sigma2) share a table,
    # and each detail is the same when solved alone in a fresh one
    _cold()
    classes = [_class(64, alpha) for alpha in (0.3, 2.0, None)]
    details = [gauss.lower_bound_detail(c) for c in classes]
    assert gauss._table.cache_info().currsize == 1
    for c, detail in zip(classes, details):
        gauss._table.cache_clear()
        assert gauss.lower_bound_detail(c) == detail


def test_no_seeded_crossing_falls_back_at_the_benchmark_configuration(monkeypatch):
    # at n = 64, R = 1/2 every seeded bracket holds its crossing, so the only
    # crossing solve that starts on [0, t_end] unasked is the reference solve
    unseeded = []
    crossing = gauss._crossing

    def counted(inp, rho, t_end, lo=None, hi=None):
        if lo is None:
            unseeded.append(rho.size)
        return crossing(inp, rho, t_end, lo, hi)

    monkeypatch.setattr(gauss, "_crossing", counted)
    _cold()
    for alpha in (2.0, None):
        gauss.lower_bound(_class(64, alpha))
    assert unseeded == [gauss._RHO_GRID.size - 1]


def test_lower_bound_ignores_eps_and_delta(monkeypatch):
    # the converse reads neither, so another eps or delta reuses its tables
    base = gauss.lower_bound(GaussBoundInput(64, 0.5))
    calls = _count_shell_mass(monkeypatch)
    assert gauss.lower_bound(GaussBoundInput(64, 0.5, eps=0.01)) == base
    assert gauss.lower_bound(GaussBoundInput(64, 0.5, delta=2.0)) == base
    assert calls[0] == 0


def test_lower_bound_detail_returns_plain_floats():
    for alpha in (None, 2.0):
        assert [type(x) for x in gauss.lower_bound_detail(_class(16, alpha))] == [float] * 4


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------

def test_upper_unbounded_tail_and_eps_pieces():
    # moment identity for the tail: E[(|x|^2/n) 1{|x|^2 > a}] = sigma2 Q_{n+2}(a)
    n, s2, delta = 100, 1.0, 0.5
    a = n * (s2 + delta)
    rng = np.random.default_rng(9)
    r2 = rng.chisquare(n, 400_000)  # the law of |x|^2 for x ~ N(0, I_n)
    hat = float(np.where(r2 > a, r2 / n, 0.0).mean())
    want = s2 * float(reg_gamma_upper(0.5 * (n + 2), 0.5 * a / s2))
    assert want == pytest.approx(hat, abs=4e-4)


def test_upper_bounds_sandwich_lower():
    for n in (16, 64, 256):
        assert gauss.upper_bound_unbounded(GaussBoundInput(n, 0.5)).value >= _detail(n)[0]


# at n = 512 the rm = 200 bound sits 7.8e-8 relative below the unbounded one,
# and at n = 1024 5.0e-7 above it; at 32 nodes the gaps are 7e-15 and 3e-13
@pytest.mark.parametrize("n", [16, 64, 128, *(pytest.param(n, marks=SHELL_UNDER_RESOLVED) for n in (512, 1024))])
def test_upper_bounded_reduces_to_unbounded(n):
    ub = gauss.upper_bound_unbounded(GaussBoundInput(n, 0.5)).value
    bd = gauss.upper_bound_bounded(GaussBoundInput(n, 0.5, rm=200.0)).value
    assert bd == pytest.approx(ub, rel=1e-10)


def _cover_gap(inp, x, s):
    """ln P(|Y - x|^2 <= s) - ln p0 for source words of squared norm x,
    evaluated independently of the upper bound."""
    n, mv = inp.n, inp.sigma2 - inp.dstar
    if inp.rm is None:
        log_cover = noncentral_chi2_log_cdf(n, x / mv, s / mv)
    else:
        log_cm = float(log_reg_gamma_lower(0.5 * n, 0.5 * inp.rm**2 / mv))
        log_cover = log_prob_intersect_batch(n, inp.rm, np.sqrt(x), np.sqrt(s), mv) - log_cm
    return log_cover - gauss._log_budget(inp)


def _node_gaps(inp, monkeypatch):
    """The upper bound's source nodes, which of them had a radius solved, and
    per node the cover gap, evaluated independently: at the solved radius for
    a solved node, at radius |x| for a skipped one."""
    nodes, solves = [], []

    def panels(edges, k):
        out = gl_panels(edges, k)
        nodes.append(out[0])
        return out

    def solve(f, lo, hi, *ends):
        out = bracket_solve(f, lo, hi, *ends)
        solves.append((np.asarray(hi), out))
        return out

    monkeypatch.setattr(gauss, "gl_panels", panels)
    monkeypatch.setattr(gauss, "bracket_solve", solve)
    (gauss.upper_bound_unbounded if inp.rm is None else gauss.upper_bound_bounded)(inp)
    x = nodes[0]
    # the radius solve is the last, in the squared radius, its high ends the
    # solved nodes' squared norms
    hi, radius_sq = solves[-1]
    solved = np.isin(x, hi)
    s = x.copy()
    s[solved] = radius_sq
    return x, solved, _cover_gap(inp, x, s)


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("rm_of_n", [None, lambda n: math.sqrt(2.0 * n), lambda n: 200.0], ids=["unbounded", "a2", "rm200"])
def test_bounded_thresholds_valid_side(n, rm_of_n, monkeypatch):
    # every node of either upper bound, unbounded or bounded codebook, is one
    # of two kinds: solved, its radius on the budget or just above it (the
    # valid side), never below; or skipped, taking |x|^2, which is exact
    # because its gap at radius |x| is negative.  The kink of min(|x|^2, r^2)
    # lies in the window, so the panel below it is skipped.
    inp = GaussBoundInput(n, 0.5, rm=None if rm_of_n is None else rm_of_n(n))
    nodes, solved, gap = _node_gaps(inp, monkeypatch)
    assert nodes.size == 96
    assert solved.sum() == 64
    assert gap[solved].min() >= 0.0
    assert gap[solved].max() <= 1e-10
    assert (gap[~solved] < 0.0).all()


@pytest.mark.parametrize("rm", [None, 4.0, 2.0, 200.0], ids=["unbounded", "a2", "a0.5", "rm200"])
def test_upper_bound_solves_no_radius_when_kink_above_window(rm, monkeypatch):
    # n = 8, R = 1/2: the gap at radius |x| is negative over the whole source
    # window, so no radius is solved, every node takes |x|^2, and the bound
    # is E[|x|^2]/n = sigma2 plus the eps term
    inp = GaussBoundInput(8, 0.5, rm=rm)
    lanes = []

    def solve(f, lo, hi, *ends):
        lanes.append(np.size(lo))
        return bracket_solve(f, lo, hi, *ends)

    monkeypatch.setattr(gauss, "bracket_solve", solve)
    n, s2, eps, mv = inp.n, inp.sigma2, inp.eps, inp.sigma2 - inp.dstar
    if rm is None:
        value = gauss.upper_bound_unbounded(inp).value
        eps_term = eps * (2.0 * s2 - inp.dstar)
    else:
        value = gauss.upper_bound_bounded(inp).value
        log_cm = float(log_reg_gamma_lower(0.5 * n, 0.5 * rm**2 / mv))
        eps_term = eps * s2 + eps * math.exp(-log_cm) * mv * float(reg_gamma_lower(0.5 * (n + 2), 0.5 * rm**2 / mv))
    assert sum(lanes) == 0
    assert value == pytest.approx(s2 + eps_term, rel=0, abs=1e-13)
    nodes, solved, gap = _node_gaps(inp, monkeypatch)
    assert not solved.any() and (gap < 0.0).all()


@pytest.mark.parametrize("alpha", [None, 2.0])
def test_upper_bound_solves_every_node_when_kink_below_window(alpha, monkeypatch):
    # n = 1200, R = 1/2: the gap at radius |x| is >= 0 over the whole source
    # window, so the window is cut at its middle and every node is solved
    inp = GaussBoundInput(1200, 0.5, rm=None if alpha is None else math.sqrt(alpha * 1200))
    nodes, solved, gap = _node_gaps(inp, monkeypatch)
    assert nodes.size == 64 and solved.all()
    assert gap.min() >= 0.0
    assert gap.max() <= 1e-10


def _dense_oracle(inp, panels=8):
    """The upper bound's integrand on `panels` equal 32-node panels over the
    source window, plus the same truncation remainders and eps term.  The
    unbounded class's radii are solved in the noncentral chi-squared
    variable, the bounded class's in the radius."""
    n, s2, d, eps = inp.n, inp.sigma2, inp.dstar, inp.eps
    mv, log_p0, x_hi = s2 - d, gauss._log_budget(inp), n * (s2 + inp.delta)
    lo, hi = gauss._source_window(n, s2, x_hi)
    x, w = gl_panels(np.linspace(lo, hi, panels + 1), 32)
    a = 0.5 * n
    if inp.rm is None:
        lam = x / mv
        y = bracket_solve(
            lambda y, k: noncentral_chi2_log_cdf(n, lam[k], y) - log_p0,
            np.zeros_like(lam),
            n + lam + 10.0 * np.sqrt(2.0 * n + 4.0 * lam) + 10.0,
        )
        r2 = y * mv
        eps_term = eps * (2.0 * s2 - d)
    else:
        rm, norm = inp.rm, np.sqrt(x)
        log_cm = float(log_reg_gamma_lower(a, 0.5 * rm**2 / mv))
        t = bracket_solve(
            lambda t, k: log_prob_intersect_batch(n, rm, norm[k], t, mv) - log_cm - log_p0,
            np.maximum(norm - rm, 0.0),
            norm + rm,
        )
        r2 = t**2
        eps_term = eps * s2 + eps * math.exp(-log_cm) * mv * float(reg_gamma_lower(a + 1.0, 0.5 * rm**2 / mv))
    pdf = np.exp((a - 1.0) * np.log(x) - 0.5 * x / s2 - a * math.log(2.0 * s2) - math.lgamma(a))
    main = float((pdf * np.minimum(x, r2) / n * w).sum())
    below = float(reg_gamma_lower(a, 0.5 * lo / s2)) * lo / n
    moment = lambda v: s2 * float(reg_gamma_upper(a + 1.0, 0.5 * v / s2))  # noqa: E731
    return main + below + max(moment(hi) - moment(x_hi), 0.0) + moment(x_hi) + eps_term


@pytest.mark.parametrize("n,alpha", [(1200, None), (1800, None), (1200, 2.0)])
def test_upper_vs_dense_oracle_without_kink(n, alpha):
    # at these n the kink of min(|x|^2, r^2) lies outside the source window,
    # so the integrand is smooth there and 8 equal panels resolve it; the
    # unbounded layout with one panel over most of the window came out up
    # to 2.2e-7 too low here
    inp = GaussBoundInput(n, 0.5, rm=None if alpha is None else math.sqrt(alpha * n))
    bound = gauss.upper_bound_unbounded if alpha is None else gauss.upper_bound_bounded
    assert bound(inp).value == pytest.approx(_dense_oracle(inp), rel=1e-11, abs=0)


def test_truncated_nearest_prob_concentric():
    # P(|y - x|^2 <= t^2) at x = 0 equals CDF(t^2/(s2-D)) / C_m
    n, mv, rm, t = 6, 0.5, 1.4, 1.0
    cm = math.exp(float(log_reg_gamma_lower(0.5 * n, 0.5 * rm**2 / mv)))
    got = math.exp(float(log_prob_intersect_batch(n, rm, np.array([0.0]), np.array([t]), mv)[0])) / cm
    assert got == pytest.approx(reg_gamma_lower(0.5 * n, 0.5 * t * t / mv) / cm, rel=1e-10)


def test_truncated_nearest_prob_monte_carlo():
    # codewords from N(0, (s2-D) I) conditioned on |y| <= rm
    n, mv, rm = 4, 0.5, math.sqrt(2.0)
    rng = np.random.default_rng(77)
    m = 2_000_000
    y = rng.normal(0.0, math.sqrt(mv), size=(m, n))
    keep = (y**2).sum(axis=1) <= rm * rm
    y = y[keep]
    x = np.array([0.9, 0.0, 0.0, 0.0])
    ts = np.array([0.6, 1.2, 2.0])
    cm_log = float(log_reg_gamma_lower(0.5 * n, 0.5 * rm**2 / mv))
    got = np.exp(log_prob_intersect_batch(n, rm, np.full(3, 0.9), ts, mv) - cm_log)
    for t, g in zip(ts, got):
        hat = float((((y - x) ** 2).sum(axis=1) <= t * t).mean())
        se = math.sqrt(max(hat * (1 - hat), 1e-12) / y.shape[0])
        assert g == pytest.approx(hat, abs=4 * se)


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


@pytest.mark.parametrize(
    "rm_of_n",
    [None, lambda n: math.sqrt(2.0 * n), lambda n: 200.0, lambda n: math.sqrt(0.25 * n)],
    ids=["unbounded", "a2", "rm200", "a0.25"],
)
def test_os_bound_never_evaluates_the_cover_at_radius_zero(rm_of_n, monkeypatch):
    # no low end of a radius bracket is evaluated: a radius-0 ball is a point,
    # and a bounded codebook's floor ball touches the rm-ball from outside,
    # so both have probability zero and are passed to the solver as -inf
    above = []
    os_bound = gauss._os_bound

    def spy(inp, log_cover, floor_sq, eps_term):
        def watched(x, s):
            x, s = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(s, dtype=float))
            above.append(s - floor_sq(x))
            return log_cover(x, s)

        return os_bound(inp, watched, floor_sq, eps_term)

    monkeypatch.setattr(gauss, "_os_bound", spy)
    n = 64
    inp = GaussBoundInput(n, 0.5, rm=None if rm_of_n is None else rm_of_n(n))
    (gauss.upper_bound_unbounded if inp.rm is None else gauss.upper_bound_bounded)(inp)
    above = np.concatenate([np.ravel(a) for a in above])
    assert above.size > 96 and (above > 0.0).all()


def test_panels_read_like_a_per_lane_search():
    # _Panels.at counts the edges <= s over all lanes at once; it must pick
    # the same panel and clamp the same way as a per-lane searchsorted
    rng = np.random.default_rng(5)
    edges = [np.array([0.0, 0.0]), np.array([0.0, 0.5, 2.0]), np.cumsum(np.append(0.0, rng.uniform(0.1, 1.0, 9))),
             np.array([0.0, 3.0])]
    vals = rng.normal(size=(sum(e.size - 1 for e in edges), 8))
    s = np.concatenate([[-1.0, 0.0, 0.5, 2.0, 3.0, 100.0], rng.uniform(-0.5, 6.0, 20), edges[2]])
    panels = gauss._Panels(edges, vals)
    p = panels.first[:, None] + np.array([np.clip(np.searchsorted(e, s, side="right") - 1, 0, e.size - 2) for e in edges])
    ends = np.array([[e[0], e[-1]] for e in edges])
    sc = np.clip(s, ends[:, :1], ends[:, 1:])
    half = panels.half[p]
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(half > 0.0, (sc - panels.lo[p]) / half - 1.0, 1.0)
    w = gl_partial(y.ravel(), 8).reshape(*y.shape, -1)
    want = panels.below[p] + half * (w * vals[p]).sum(axis=-1)
    assert np.array_equal(panels.at(s), want)


# the gauss-curve benchmark's gauss work (n = 64, R = 1/2, eps = 0.005; the
# alpha = 2 and unbounded classes, then rm = 200), counted from cold tables;
# the ball caps of the bounded class's volume cap go through the untraced
# log_cap_fraction and are not among the cone lanes
WORK = {"shell_calls": 81, "shell_rows": 3011, "cone_lanes": 220100}


def test_gauss_curve_work_stays_down(monkeypatch):
    # each count may rise by at most 5%: a change that brings back unpruned
    # cap areas, the slower Illinois root steps or radius solves at the nodes
    # below the kink fails here (the brackets' low ends are watched by
    # test_os_bound_never_evaluates_the_cover_at_radius_zero)
    work = dict.fromkeys(WORK, 0)

    def shell(n, lo, *args):
        work["shell_calls"] += 1
        work["shell_rows"] += np.size(lo)
        return log_shell_mass_batch(n, lo, *args)

    def cone(n, cos):
        work["cone_lanes"] += np.size(cos)
        return log_cone_area(n, cos)

    monkeypatch.setattr(gauss, "log_shell_mass_batch", shell)
    monkeypatch.setattr(geometry, "log_shell_mass_batch", shell)
    monkeypatch.setattr(geometry, "log_cone_area", cone)
    _cold()
    for rm in (math.sqrt(2.0 * 64), None):
        inp = GaussBoundInput(64, 0.5, rm=rm, eps=0.005)
        gauss.lower_bound(inp)
        (gauss.upper_bound_unbounded if rm is None else gauss.upper_bound_bounded)(inp)
    gauss.upper_bound_bounded(GaussBoundInput(64, 0.5, rm=200.0, eps=0.005))
    assert all(work[k] <= 1.05 * WORK[k] for k in WORK), work


@pytest.mark.parametrize("rm", [None, math.sqrt(2.0 * 64), 200.0], ids=["unbounded", "a2", "rm200"])
def test_os_bound_finds_its_kink_in_few_cover_calls(rm, monkeypatch):
    # at the benchmark's n = 64, R = 1/2, before its radius solve an OS bound
    # reads the cover law at radius |x| only: one 17-point probe of the source
    # window, 5 rounds of the kink solve inside the probe interval where the
    # gap changes sign, and one pass over the quadrature nodes
    calls = []
    os_bound = gauss._os_bound

    def spy(inp, log_cover, floor_sq, eps_term):
        def counted(x, s):
            calls.append(s is x)
            return log_cover(x, s)

        return os_bound(inp, counted, floor_sq, eps_term)

    monkeypatch.setattr(gauss, "_os_bound", spy)
    inp = GaussBoundInput(64, 0.5, rm=rm)
    (gauss.upper_bound_unbounded if rm is None else gauss.upper_bound_bounded)(inp)
    assert calls.index(False) <= 7
