import csv
import math
from fractions import Fraction
from functools import cache
from math import comb

import numpy as np
import pytest

from rdflb import bns, bss, logdomain
from rdflb.cli import main
from rdflb.ratedistortion import BinarySymmetricSource, solve

DSTAR_HALF = solve(BinarySymmetricSource(), 0.5).dstar


# ---------------------------------------------------------------------------
# exact big-integer oracles for the three threshold constructions
# ---------------------------------------------------------------------------

def oracle_lower(n, rate):
    budget = Fraction(2) ** Fraction(n * (1 - rate)) if float(n * (1 - rate)).is_integer() else None
    t = 2.0 ** (n * (1 - rate))
    d = 0
    while d <= n and sum(comb(n, j) for j in range(d + 1)) <= t:
        d += 1
    partial = sum(comb(n, j) for j in range(d))
    alpha = (t - partial) / comb(n, d)
    val = 2.0 ** (n * (rate - 1)) * (
        sum(comb(n, j) * j / n for j in range(d)) + alpha * comb(n, d) * d / n
    )
    return val, d, alpha


def oracle_t_eps(n, rate, eps):
    budget = math.log(1 / eps) / (2.0 ** (n * rate) - 1)
    acc = 0.0
    for t in range(n + 1):
        acc += comb(n, t) * 2.0**-n
        if acc >= budget:
            return t
    return n


def oracle_rr(n, rate, ref_rate):
    from rdflb.special import inverse_binary_entropy

    p = inverse_binary_entropy(1 - ref_rate)
    q = 2.0 ** (n * rate)
    btilde = (1 / (2 * q)) * ((q - 1) / q) ** (q - 1)
    target = 2.0**n * btilde
    d = 0
    while d <= n and 0.5 * sum(comb(n, j) for j in range(d + 1)) <= target:
        d += 1
    partial = 0.5 * sum(comb(n, j) for j in range(d))
    ell = target - partial
    val = p + sum(0.5 * comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(d))
    val += ell * p**d * (1 - p) ** (n - d)
    return val, d


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------

def test_lower_bound_worked_example():
    # n=10, R=1/2: packing radius 2, fractional layer 21/45
    assert bss.lower_bound(10, 0.5) == pytest.approx(0.1625, abs=1e-12)
    _, d, alpha = oracle_lower(10, 0.5)
    assert (d, alpha) == (2, pytest.approx(21 / 45))


@pytest.mark.parametrize("n", [2, 4, 8, 10, 16, 20])
@pytest.mark.parametrize("rate", [0.25, 0.5, 0.75])
def test_lower_bound_vs_bigint_oracle(n, rate):
    want, _, _ = oracle_lower(n, rate)
    assert bss.lower_bound(n, rate) == pytest.approx(want, rel=1e-11)


@cache
def exact_lower_half_rate(n):
    """(1/(n 2^n)) sum_t max(0, 2^n - Q sum_{i<=t} C(n, i)) at R = 1/2, even n,
    in big integers: Q = 2^(n/2) codewords serve at most Q C(n, i) words at
    distance i, and the mean distance is the sum over t of the share of
    words not served within distance t."""
    q, total, served, unserved, c = 2 ** (n // 2), 2**n, 0, 0, 1
    for i in range(n + 1):
        served += q * c
        if served >= total:
            break
        unserved += total - served
        c = c * (n - i) // (i + 1)  # C(n, i + 1)
    return Fraction(unserved, n * total)


def test_lower_bound_vs_exact_sum_large_n():
    # the oracle above stops at n = 20 and works in floats; this one is exact
    assert float(exact_lower_half_rate(200)) == 0.11548405444003067
    for n in range(100, 2001, 100):
        assert bss.lower_bound(n, 0.5) == pytest.approx(float(exact_lower_half_rate(n)), rel=1e-14, abs=0), n


# the exact sums at the bss-curve benchmark's blocklengths
EXACT_LARGE_N = {20000: 0.11013803124860073, 40000: 0.11008932190553762, 60000: 0.11006866807827581}


def test_closed_form_vs_exact_sum_at_the_benchmark_blocklengths():
    for n, want in EXACT_LARGE_N.items():
        assert float(exact_lower_half_rate(n)) == want
        assert bss.lower_bound(n, 0.5) == pytest.approx(want, rel=1e-14, abs=0), n


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 100, 257, 2000])
def test_closed_form_vs_the_bns_route(n):
    # the small rates run the served prefix past n/2
    for rate in (0.01, 0.1, 0.25, 0.5, 0.75, 0.99):
        assert bss.lower_bound(n, rate) == pytest.approx(bns.lower_bound(n, rate, 0.5), rel=1e-13, abs=0), rate


def test_closed_form_does_not_go_through_bns(monkeypatch):
    def route(*args):
        raise AssertionError("bss.lower_bound called bns.lower_bound")

    monkeypatch.setattr(bns, "lower_bound", route)
    assert bss.lower_bound(10, 0.5) == pytest.approx(0.1625, abs=1e-12)


def test_printed_lower_bound_never_exceeds_the_exact_sum(tmp_path):
    # the float errs with either sign by about 1e-14, but the CLI rounds a
    # lower bound down to 10 digits, so the printed value stays valid
    out = tmp_path / "bss.csv"
    assert main(["curve", "bss", "--rate", "0.5", "--n", "100:2000:100", "--jobs", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()[1:]))
    assert len(rows) == 20
    assert [r["n"] for r in rows if Fraction(r["lower"]) > exact_lower_half_rate(int(r["n"]))] == []


def test_printed_lower_bound_stays_valid_at_the_benchmark_blocklengths(tmp_path):
    # the float sits up to about 6e-15 above the exact sum here: only the
    # CLI's floor to 10 digits keeps the printed value a lower bound
    out = tmp_path / "bss.csv"
    assert main(["curve", "bss", "--rate", "0.5", "--n", "20000:60000:20000", "--jobs", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()[1:]))
    assert [int(r["n"]) for r in rows] == list(EXACT_LARGE_N)
    assert [r["n"] for r in rows if Fraction(r["lower"]) > exact_lower_half_rate(int(r["n"]))] == []


def test_bss_curve_work_stays_down(monkeypatch, tmp_path):
    # the bss-curve benchmark's ln j! work from a cleared table: one table
    # grown to n = 60000 takes 60,001 gammaln lanes, where one table per
    # blocklength took 120,003
    gammaln, lanes = logdomain.gammaln, [0]

    def counted(x):
        lanes[0] += np.size(x)
        return gammaln(x)

    monkeypatch.setattr(logdomain, "gammaln", counted)
    monkeypatch.setattr(logdomain, "_LOG_FACT", np.empty(0))
    assert main(["curve", "bss", "--rate", "0.5", "--eps", "0.01", "--ref-rate", "0.45", "--legacy-eps", "0.0485",
                 "--n", "20000:60000:20000", "--jobs", "1", "--out", str(tmp_path / "bss.csv")]) == 0
    assert 0 < lanes[0] <= 60001


def test_lower_bound_small_n_sane():
    v = bss.lower_bound(1, 0.5)
    assert 0.0 <= v <= 0.5


def test_lower_bound_dominates_asymptote_and_converges():
    prev_gap = None
    for n in (100, 200, 400, 800, 2000):
        v = bss.lower_bound(n, 0.5)
        gap = v - DSTAR_HALF
        assert gap >= -1e-12
        if prev_gap is not None:
            assert gap <= prev_gap + 1e-12
        prev_gap = gap
    assert bss.lower_bound(2000, 0.5) == pytest.approx(DSTAR_HALF, abs=0.02)


# ---------------------------------------------------------------------------
# ordered-statistics upper bound
# ---------------------------------------------------------------------------

def test_upper_os_worked_example():
    r = bss.upper_bound_os(10, 0.5, 0.01)
    assert r.threshold == 3
    assert r.value == pytest.approx(0.99 * 0.3 + 0.005, abs=1e-12)
    assert not r.degenerate


@pytest.mark.parametrize("n", [6, 10, 14, 18])
def test_upper_os_threshold_vs_oracle(n):
    for eps in (0.005, 0.01, 0.1):
        assert bss.upper_bound_os(n, 0.5, eps).threshold == oracle_t_eps(n, 0.5, eps)


def test_upper_os_eps_near_one():
    eps = 1.0 - 1e-12
    r = bss.upper_bound_os(50, 0.5, eps)
    assert r.threshold == 0
    assert r.value == pytest.approx(eps / 2, abs=1e-6)


def test_upper_os_degenerate_flagged():
    # tiny Q: budget above the whole space
    r = bss.upper_bound_os(4, 0.1, 0.01)
    assert r.degenerate
    assert r.threshold == 4


def test_upper_os_decreasing_in_n():
    # the integer threshold makes the curve a staircase with ~1e-3 jitter,
    # so monotonicity is asserted on a coarse grid plus the endpoints
    vals = [bss.upper_bound_os(n, 0.5, 0.01).value for n in (50, 100, 150, 200)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert bss.upper_bound_os(1000, 0.5, 0.01).value < bss.upper_bound_os(100, 0.5, 0.01).value


# ---------------------------------------------------------------------------
# reference-rate upper bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 12, 16, 24])
def test_upper_rr_vs_oracle(n):
    for r0 in (0.3, 0.45):
        want, _ = oracle_rr(n, 0.5, r0)
        assert bss.upper_bound_rr(n, 0.5, r0) == pytest.approx(want, rel=1e-10)


def test_upper_rr_bounded_below_by_reference_distortion():
    from rdflb.special import inverse_binary_entropy

    for n in (10, 100, 400):
        for r0 in (0.4, 0.45):
            p = inverse_binary_entropy(1 - r0)
            v = bss.upper_bound_rr(n, 0.5, r0)
            assert v >= p
            assert v <= p + 0.5 + 1e-12


def test_upper_rr_correction_vanishes():
    from rdflb.special import inverse_binary_entropy

    p = inverse_binary_entropy(1 - 0.45)
    assert bss.upper_bound_rr(8000, 0.5, 0.45) == pytest.approx(p, abs=1e-5)


def test_upper_rr_domain():
    with pytest.raises(ValueError):
        bss.upper_bound_rr(10, 0.5, 0.6)


# ---------------------------------------------------------------------------
# legacy bound
# ---------------------------------------------------------------------------

def test_upper_legacy_worked_example():
    from rdflb.special import inverse_binary_entropy

    want = inverse_binary_entropy(0.6) + 2.0**-5
    assert bss.upper_bound_legacy(100, 0.5, 0.4, 0.05) == pytest.approx(want, rel=1e-12, abs=0)
    assert want == pytest.approx(0.1774, abs=3e-4)


def test_upper_legacy_limit_and_domain():
    from rdflb.special import inverse_binary_entropy

    assert bss.upper_bound_legacy(5000, 0.5, 0.4, 0.05) == pytest.approx(
        inverse_binary_entropy(0.6), abs=1e-12
    )
    with pytest.raises(ValueError):
        bss.upper_bound_legacy(100, 0.5, 0.4, 0.2)
    # the blocklength and the rate pass bns's check at p = 1/2, where H(p) = 1 bit
    with pytest.raises(ValueError):
        bss.upper_bound_legacy(0, 0.5, 0.4, 0.05)
    with pytest.raises(ValueError):
        bss.upper_bound_legacy(100, 1.0, 0.4, 0.05)


def test_legacy_exceeds_improved_rr_at_matched_reference():
    # with the rate slack close to R - R0 the legacy exponential stalls
    # while the improved correction keeps shrinking
    for n in (400, 800):
        legacy = bss.upper_bound_legacy(n, 0.5, 0.45, 0.0485)
        improved = bss.upper_bound_rr(n, 0.5, 0.45)
        assert legacy > improved


# ---------------------------------------------------------------------------
# sandwich
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 512])
def test_sandwich(n):
    lo = bss.lower_bound(n, 0.5)
    uppers = [bss.upper_bound_os(n, 0.5, 0.01).value, bss.upper_bound_rr(n, 0.5, 0.45)]
    assert lo >= DSTAR_HALF - 1e-12
    assert lo <= min(uppers) + 1e-12
