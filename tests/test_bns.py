import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from rdflb import bns, bss
from rdflb.logdomain import LOG_ZERO, _log_factorials, log_binomial_row, logsumexp
from rdflb.ratedistortion import BinaryNonSymmetricSource, solve
from rdflb.simulate import Codebook, exact_distortion
from rdflb.special import binary_entropy, inverse_binary_entropy


# ---------------------------------------------------------------------------
# weight-conditional distance pmf
# ---------------------------------------------------------------------------

def _log_distance_law(n: int, w: int, z: float, log_budget: float = math.inf) -> np.ndarray:
    """ln P(n d(x,y) = d) for weight-w x and codeword bits i.i.d. Bernoulli(z).

    The one-class view of ``bns._block_laws``: only the columns up to the
    first whose running sum passes log_budget come back, every one of them
    exact; the default budget returns all n + 1.
    """
    w, g = np.array([w]), _log_factorials(n)
    law, _, _, last = bns._block_laws(n, w, z, g, log_budget, n + 1, bns._part_maxima(n, w, z, g))
    return law[0, : last[0] + 1]


def test_pmf_hand_convolution():
    pmf = np.exp(_log_distance_law(2, 1, 0.4))
    assert pmf == pytest.approx([0.24, 0.52, 0.24], abs=1e-14)


def test_pmf_weight_zero_is_binomial():
    pmf = np.exp(_log_distance_law(5, 0, 0.3))
    want = [comb(5, d) * 0.3**d * 0.7 ** (5 - d) for d in range(6)]
    assert pmf == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("n,w,z", [(7, 3, 0.37), (12, 12, 0.2), (20, 9, 0.5), (31, 1, 0.01)])
def test_pmf_normalizes(n, w, z):
    pmf = np.exp(_log_distance_law(n, w, z))
    assert pmf.sum() == pytest.approx(1.0, abs=1e-10)


def test_pmf_brute_force_enumeration():
    # sum over all 2^n codewords, weighted by the product Bernoulli law
    n, w, z = 8, 3, 0.35
    x = np.array([1] * w + [0] * (n - w))
    pmf = np.zeros(n + 1)
    for word in range(1 << n):
        y = (word >> np.arange(n)) & 1
        d = int((y != x).sum())
        pmf[d] += z ** y.sum() * (1 - z) ** (n - y.sum())
    assert np.exp(_log_distance_law(n, w, z)) == pytest.approx(pmf, rel=1e-11)


@pytest.mark.parametrize("w", [6, 150, 294])
def test_pmf_vs_integer_oracle(w):
    # z = 1/5: P(d) 5^n = sum_i C(w,i) C(n-w,d-i) 4^(n-w+2i-d), exact in integers;
    # the far tail of w = 6 lies below e^-745, where a linear convolution gives -inf
    n = 600
    got = _log_distance_law(n, w, 0.2)
    for d in range(n + 1):
        s = sum(comb(w, i) * comb(n - w, d - i) * 4 ** (n - w + 2 * i - d)
                for i in range(max(0, d - (n - w)), min(w, d) + 1))
        assert got[d] == pytest.approx(math.log(s) - n * math.log(5), rel=1e-12, abs=0)


def test_budget_limits_exact_columns_to_those_read():
    # n = 2000: both tails of the law fall below the convolution floor; a
    # budgeted law must agree with the full one on every column a scan reads
    n, w, z = 2000, 500, 0.175
    full = _log_distance_law(n, w, z)
    for log_budget in (-900.0, -400.0, -5.0, 0.0):
        law = _log_distance_law(n, w, z, log_budget)
        t, _ = bns.hamming_ball_threshold(law, log_budget)
        assert t == bns.hamming_ball_threshold(full, log_budget)[0]
        assert np.array_equal(law[: t + 1], full[: t + 1])


# ---------------------------------------------------------------------------
# block pipeline against the per-class path it replaced
# ---------------------------------------------------------------------------

def _per_class_law(n, w, z, log_budget):
    """One class at a time, as bns did before the block pipeline: two binomial
    rows, one convolution, a floored scan that bounds the recomputed columns.
    A one-part class (w = 0 or n) is its part, with nothing floored.

    Returns the law up to that scan's end and whether a column was recomputed.
    """
    lz, l1z = math.log(z), math.log1p(-z)
    i = np.arange(w + 1)
    ones = log_binomial_row(w) + (w - i) * lz + i * l1z
    j = np.arange(n - w + 1)
    zeros = log_binomial_row(n - w) + j * lz + (n - w - j) * l1z
    if w in (0, n):
        law = zeros if w == 0 else ones
        last, _ = bns.hamming_ball_threshold(law, log_budget + bns._SLACK)
        return law[: last + 1], False
    shift = ones.max() + zeros.max()
    with np.errstate(divide="ignore", under="ignore"):
        law = np.log(np.convolve(np.exp(ones - ones.max()), np.exp(zeros - zeros.max()))) + shift
    low = law < shift + bns._FLOOR
    last, _ = bns.hamming_ball_threshold(np.where(low, LOG_ZERO, law), log_budget + bns._SLACK)
    cols = np.flatnonzero(low[: last + 1])
    if cols.size:
        i = np.arange(max(0, cols[0] - (n - w)), min(w, cols[-1]) + 1)
        j = cols[:, None] - i
        inside = (j >= 0) & (j <= n - w)
        law[cols] = logsumexp(np.where(inside, ones[i] + zeros[np.clip(j, 0, n - w)], LOG_ZERO), axis=1)
    return law[: last + 1], bool(cols.size)


def _assert_scans_match(n, p, z, log_budget):
    """Every class of the window: the block pipeline's threshold, leftover
    budget and read columns equal the per-class path's, exactly.

    Returns the number of classes whose read columns were recomputed.
    """
    weights = bns._weight_window(n, p)[0]
    recomputed = 0
    for w, law, d, left in bns._class_scans(n, weights, z, log_budget):
        for k, wk in enumerate(w.tolist()):
            old, fixed = _per_class_law(n, wk, z, log_budget)
            recomputed += fixed
            assert (int(d[k]), float(left[k])) == bns.hamming_ball_threshold(old, log_budget)
            assert np.array_equal(law[k, : d[k]], old[: d[k]])
    return recomputed


def _budgets(n, rate):
    """The OS budget at eps = 0.01 and the RR budget."""
    os_budget = math.log(math.log(100.0)) - bns.log_q_minus(n, rate)
    return os_budget, -n * rate * math.log(2.0) + bns._log_one_minus_inv_q_pow(n, rate)


@pytest.mark.parametrize("p", [0.05, 0.25, 0.5])
@pytest.mark.parametrize("n", [1, 2, 7, 200])
def test_block_scans_match_the_per_class_path(n, p):
    rate = 0.2
    sol = solve(BinaryNonSymmetricSource(p), rate)
    d0 = sol.dstar + 0.3 * (p - sol.dstar)
    for z in (sol.marginal_one_prob, (p - d0) / (1.0 - 2.0 * d0)):
        for log_budget in (*_budgets(n, rate), -3.0, math.inf):
            _assert_scans_match(n, p, z, log_budget)


def test_block_scans_match_with_recomputed_columns():
    # n = 1000, p = 1/4: the low-d columns of the rarest classes fall below
    # the convolution floor inside the prefix the OS scan reads
    n, rate, p, d0 = 1000, 0.3, 0.25, 0.1314047333665419
    z = solve(BinaryNonSymmetricSource(p), rate).marginal_one_prob
    os_budget, rr_budget = _budgets(n, rate)
    assert _assert_scans_match(n, p, z, os_budget) > 0
    _assert_scans_match(n, p, (p - d0) / (1.0 - 2.0 * d0), rr_budget)


@pytest.mark.parametrize("n,z", [(1, 0.3), (7, 0.37), (200, 0.2), (1000, 0.5), (60000, 0.5)])
def test_one_part_classes_are_their_binomial_rows(n, z):
    # w = 0: every mismatch is a codeword one; w = n: every mismatch a codeword zero
    j = np.arange(n + 1)
    lz, l1z = math.log(z), math.log1p(-z)
    assert np.array_equal(_log_distance_law(n, 0, z), log_binomial_row(n) + j * lz + (n - j) * l1z)
    assert np.array_equal(_log_distance_law(n, n, z), log_binomial_row(n) + (n - j) * lz + j * l1z)


@pytest.mark.parametrize("n", [1, 37, 1000])
def test_one_part_class_vs_exact_binomials(n):
    z = 0.3
    want = [math.log(comb(n, j)) + j * math.log(z) + (n - j) * math.log1p(-z) for j in range(n + 1)]
    assert _log_distance_law(n, 0, z) == pytest.approx(want, rel=0, abs=1e-11)
    assert _log_distance_law(n, n, z) == pytest.approx(want[::-1], rel=0, abs=1e-11)


def test_block_scan_of_the_single_half_class():
    n, rate = 60000, 0.5
    for log_budget in _budgets(n, rate):
        _assert_scans_match(n, 0.5, 0.5, log_budget)


@pytest.mark.parametrize("n,os_value,threshold,rr_value,lower", [
    (20000, 0.114098, 2204, 0.12730480597590965, 0.11013803124860069),
    (40000, 0.11402375, 4405, 0.12730480597588312, 0.11008932190553809),
    (60000, 0.1139825, 6605, 0.12730480597588312, 0.11006866807827645),
])
def test_bss_bounds_pinned_at_large_n(n, os_value, threshold, rr_value, lower):
    # OS and RR: the values of the class w = 0 taken through the convolution
    # and the floor, which its one part, read directly, must give; lower: the
    # closed-form sum, within 6e-15 of the exact one (tests/test_bss.py)
    r = bss.upper_bound_os(n, 0.5, 0.01)
    assert (r.value, r.threshold) == (os_value, threshold)
    assert bss.upper_bound_rr(n, 0.5, 0.45) == pytest.approx(rr_value, rel=1e-15, abs=0)
    assert bss.lower_bound(n, 0.5) == lower


def _per_class_bounds(n, rate, p, d0):
    """OS at eps = 0.01 and RR, summed one class at a time over the per-class
    laws, in the float operations of the loop the block pipeline replaced."""
    eps = 0.01
    z = solve(BinaryNonSymmetricSource(p), rate).marginal_one_prob
    z0 = (p - d0) / (1.0 - 2.0 * d0)
    os_budget, rr_budget = _budgets(n, rate)
    weights, logw, log_tail = bns._weight_window(n, p)
    os_total = rr_total = 0.0
    for w, lw in zip(weights.tolist(), logw.tolist()):
        t, _ = bns.hamming_ball_threshold(_per_class_law(n, w, z, os_budget)[0], os_budget)
        os_total += math.exp(lw) * ((1.0 - eps) * min(t, n) / n + eps / 2.0)
        law = _per_class_law(n, w, z0, rr_budget)[0]
        dx, log_left = bns.hamming_ball_threshold(law, rr_budget)
        mass = np.append(law[:dx], log_left)[: n + 1]
        j = np.arange(mass.size)
        terms = mass + j * math.log(d0) + (n - j) * math.log1p(-d0) - (w * math.log(p) + (n - w) * math.log1p(-p))
        u_w = z0 * (1.0 - w / n) + (1.0 - z0) * w / n
        rr_total += math.exp(lw) * (u_w * math.exp(logsumexp(terms)))
    os_total += math.exp(log_tail) * ((1.0 - eps) + eps / 2.0)
    return os_total, d0 + rr_total + math.exp(log_tail) * (1.0 - z0)


@pytest.mark.parametrize("n,rate,p,d0", [(60, 0.2, 0.05, 0.03), (200, 0.2, 0.1, 0.0568),
                                         (200, 0.3, 0.25, 0.1314047333665419),
                                         (600, 0.3, 0.25, 0.1314047333665419), (200, 0.5, 0.5, 0.13)])
def test_bounds_equal_the_per_class_loop(n, rate, p, d0):
    # (200, 0.2, 0.1) tells a sum over each class's own columns from one over
    # the padded block row: the two round apart there
    os_value, rr_value = _per_class_bounds(n, rate, p, d0)
    assert bns.upper_bound_os(n, rate, p, 0.01).value == os_value
    assert bns.upper_bound_rr(n, rate, p, d0) == rr_value


def test_a_block_holds_at_most_the_cell_budget():
    n, p = 600, 0.25
    weights = bns._weight_window(n, p)[0]
    blocks = [w.size for w, *_ in bns._class_scans(n, weights, 0.2, -5.0)]
    assert sum(blocks) == weights.size
    assert max(blocks) * (n + 1) <= bns._CELLS


# ---------------------------------------------------------------------------
# laws built only to the scan's end
# ---------------------------------------------------------------------------

def _rr_z0(p, d0):
    return (p - d0) / (1.0 - 2.0 * d0)


def test_a_prefix_too_short_is_rebuilt_at_full_length():
    n, rate, p, d0 = 600, 0.3, 0.25, 0.1314047333665419
    g = _log_factorials(n)
    z = solve(BinaryNonSymmetricSource(p), rate).marginal_one_prob
    for zz, log_budget in zip((z, _rr_z0(p, d0)), _budgets(n, rate)):
        for w in (np.arange(27, 40), np.arange(150, 163), np.array([0])):
            tops = bns._part_maxima(n, w, zz, g)
            law, d, left, last = bns._block_laws(n, w, zz, g, log_budget, n + 1, tops)
            short = bns._block_laws(n, w, zz, g, log_budget, 3, tops)
            assert short[0].shape[1] == (3 if last.max() < 3 else n + 1)
            for k, lk in enumerate(last.tolist()):
                assert np.array_equal(short[0][k, : lk + 1], law[k, : lk + 1])
            for got, want in zip(short[1:], (d, left, last)):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("p,rate,d0", [(0.25, 0.3, 0.1314047333665419), (0.05, 0.2, 0.03)])
@pytest.mark.parametrize("n", [200, 400, 600])
def test_scan_end_moves_at_most_one_column_per_weight(n, p, rate, d0):
    # the bound that sizes every block, on the full laws; the first block
    # counts from the w = 0 law, whose scan ends by its first column over
    g = _log_factorials(n)
    weights = bns._weight_window(n, p)[0]
    step = max(1, bns._CELLS // (n + 1))
    z = solve(BinaryNonSymmetricSource(p), rate).marginal_one_prob
    for zz, log_budget in zip((z, _rr_z0(p, d0)), _budgets(n, rate)):
        tops = bns._part_maxima(n, weights, zz, g)
        last = np.concatenate([bns._block_laws(n, weights[s : s + step], zz, g, log_budget, n + 1,
                                               tops[:, s : s + step])[3] for s in range(0, weights.size, step)])
        assert np.all(np.diff(last) <= 1)
        assert last[0] <= bns._first_over(n, zz, g, log_budget + bns._SLACK) + weights[0]


def test_prefix_convolution_is_the_full_one_cut():
    rng = np.random.default_rng(5)
    for _ in range(8):
        a, v = (np.exp(-40.0 * rng.random(k)) for k in rng.integers(1, 701, 2))
        full = np.convolve(a, v)
        x, y = (v, a) if v.size > a.size else (a, v)
        for size in range(1, full.size + 1):
            assert np.array_equal(bns._prefix_convolve(x, y, size), full[:size])


@pytest.mark.parametrize("n", [2, 7, 200, 601, 2000])
def test_part_maxima_read_at_the_modes_are_the_full_row_maxima(n):
    # the float maximum can sit one column off floor((k + 1) q), where two
    # columns tie in exact arithmetic
    g = _log_factorials(n)
    w = np.arange(1, n)
    for z in (0.5, 0.25, 1 / 3, 0.2, 0.1314, 0.0123):
        ones, zeros = bns._mismatch_parts(n, w, z, g, np.arange(n + 1), np.arange(n + 1))
        assert np.array_equal(bns._part_maxima(n, w, z, g), [ones.max(axis=1), zeros.max(axis=1)])


@pytest.mark.parametrize("n", [1, 2, 7, 200, 20000, 60000])
def test_one_part_bisection_finds_the_first_column_over(n):
    g = _log_factorials(n)
    for z in (0.5, 0.3, 0.02):
        row = bns._mismatch_parts(n, np.array([0]), z, g, np.arange(1), np.arange(n + 1))[1][0]
        for log_budget in (*_budgets(n, 0.2), -40.0, -3.0, row.max() - bns._SLACK, math.inf):
            over = row > log_budget + bns._SLACK
            want = int(over.argmax()) if over.any() else n
            assert bns._first_over(n, z, g, log_budget + bns._SLACK) == want


# (p, rate, d0, n, OS value at eps = 0.01, RR value) as float.hex, recorded
# from the full-length laws before they were built only to the scan's end
_PINNED = [
    (0.05, 0.2, 0.03, 1, "0x1.fd70a3d70a3d7p-1", "0x1.4e9bb24a59991p-4"),
    (0.05, 0.2, 0.03, 2, "0x1.fd70a3d70a3d7p-1", "0x1.31b8c9f6b4112p-4"),
    (0.05, 0.2, 0.03, 7, "0x1.fd70a3d70a3d7p-1", "0x1.056f1b81f5640p-4"),
    (0.05, 0.2, 0.03, 64, "0x1.11d53a75f6b18p-5", "0x1.6ffa3ae6706fcp-5"),
    (0.05, 0.2, 0.03, 65, "0x1.12d00f4f24c04p-5", "0x1.6e3ba210b8e6bp-5"),
    (0.05, 0.2, 0.03, 200, "0x1.6baf6ba0870a1p-6", "0x1.0eba08600feb8p-5"),
    (0.05, 0.2, 0.03, 257, "0x1.4d85a1163f279p-6", "0x1.0319f7444d27cp-5"),
    (0.05, 0.2, 0.03, 600, "0x1.260375dcdf717p-6", "0x1.ec4c6a29bfcaap-6"),
    (0.05, 0.2, 0.03, 1000, "0x1.18b661a82c8f7p-6", "0x1.eb88e67f40649p-6"),
    (0.25, 0.3, 0.1314047333665419, 1, "0x1.fd70a3d70a3d7p-1", "0x1.79b95585b741cp-2"),
    (0.25, 0.3, 0.1314047333665419, 2, "0x1.fd70a3d70a3d7p-1", "0x1.66cd80ea6d812p-2"),
    (0.25, 0.3, 0.1314047333665419, 7, "0x1.fd70a3d70a3d7p-1", "0x1.4e7ad8c331a7cp-2"),
    (0.25, 0.3, 0.1314047333665419, 64, "0x1.34e54104f6eb5p-3", "0x1.1a433e8a60f64p-2"),
    (0.25, 0.3, 0.1314047333665419, 65, "0x1.34c2df86be5aep-3", "0x1.19a2ffc0abe70p-2"),
    (0.25, 0.3, 0.1314047333665419, 200, "0x1.08f2a72528f73p-3", "0x1.c7bc722b2774cp-3"),
    (0.25, 0.3, 0.1314047333665419, 257, "0x1.0431a60b8593bp-3", "0x1.abfbc2cc8e1e0p-3"),
    (0.25, 0.3, 0.1314047333665419, 600, "0x1.f3694c78dff64p-4", "0x1.51a24ae641341p-3"),
    (0.25, 0.3, 0.1314047333665419, 1000, "0x1.ed119bd4630eap-4", "0x1.29d578e6efa7ep-3"),
    (0.4, 0.5, 0.2, 1, "0x1.fd70a3d70a3d7p-1", "0x1.01bf297ea50adp-1"),
    (0.4, 0.5, 0.2, 2, "0x1.fd70a3d70a3d7p-1", "0x1.d950c83fb72ebp-2"),
    (0.4, 0.5, 0.2, 7, "0x1.c1797a9dde80bp-2", "0x1.7da5ef5eb560cp-2"),
    (0.4, 0.5, 0.2, 64, "0x1.182750ca7c683p-3", "0x1.b608bd9051062p-3"),
    (0.4, 0.5, 0.2, 65, "0x1.167f19585c007p-3", "0x1.b4e63cc8317a6p-3"),
    (0.4, 0.5, 0.2, 200, "0x1.daad20881eed8p-4", "0x1.99bb60c3af265p-3"),
    (0.4, 0.5, 0.2, 257, "0x1.d15e2e32a164dp-4", "0x1.999d5c9d71c56p-3"),
    (0.4, 0.5, 0.2, 600, "0x1.bd4a6f554c0a4p-4", "0x1.9999999a2431cp-3"),
    (0.4, 0.5, 0.2, 1000, "0x1.b70b62af49f51p-4", "0x1.999999999999ap-3"),
    (0.5, 0.5, 0.13, 1, "0x1.fd70a3d70a3d7p-1", "0x1.ffeb1338d30dap-2"),
    (0.5, 0.5, 0.13, 2, "0x1.fd70a3d70a3d7p-1", "0x1.04538ef34d6a2p-1"),
    (0.5, 0.5, 0.13, 7, "0x1.b796ac9dfd130p-2", "0x1.a7235c0c5669cp-2"),
    (0.5, 0.5, 0.13, 64, "0x1.275c28f5c28f6p-3", "0x1.5f502c930b1bap-2"),
    (0.5, 0.5, 0.13, 65, "0x1.22f939d10db4bp-3", "0x1.5c9df8dc443f8p-2"),
    (0.5, 0.5, 0.13, 200, "0x1.fb15b573eab36p-4", "0x1.0b7892268f352p-2"),
    (0.5, 0.5, 0.13, 257, "0x1.fd9bfd9bfd9c1p-4", "0x1.f7e48087cd720p-3"),
    (0.5, 0.5, 0.13, 600, "0x1.e6cf41f212d78p-4", "0x1.6b5a055955ea8p-3"),
    (0.5, 0.5, 0.13, 1000, "0x1.deb313be22e5fp-4", "0x1.32062c58e5713p-3"),
]


@pytest.mark.parametrize("p,rate,d0,n,os_hex,rr_hex", _PINNED)
def test_bounds_pinned_bit_for_bit(p, rate, d0, n, os_hex, rr_hex):
    assert bns.upper_bound_os(n, rate, p, 0.01).value.hex() == os_hex
    assert bns.upper_bound_rr(n, rate, p, d0).hex() == rr_hex


@pytest.mark.parametrize("n,os_hex,rr_hex", [
    (20000, "0x1.d3586ca89fc6ep-4", "0x1.04b861d2523e0p-3"),
    (60000, "0x1.d2df505d0fa59p-4", "0x1.04b861d252024p-3"),
])
def test_bss_bounds_pinned_bit_for_bit(n, os_hex, rr_hex):
    assert bss.upper_bound_os(n, 0.5, 0.01).value.hex() == os_hex
    assert bss.upper_bound_rr(n, 0.5, 0.45).hex() == rr_hex


@pytest.mark.parametrize("n", [600, 920, 1300])
def test_discarded_weight_mass_is_the_sum_outside_the_window(n):
    # 1 - (sum kept) gave 6.2e-13 at n = 920, rounding noise over a true ~1e-41
    p = Fraction(1, 4)
    weights, _, log_tail = bns._weight_window(n, float(p))
    kept = set(weights.tolist())
    exact = sum(comb(n, w) * p**w * (1 - p) ** (n - w) for w in range(n + 1) if w not in kept)
    assert log_tail == pytest.approx(math.log(exact), rel=1e-12, abs=0)
    assert bns._weight_window(n, 0.5)[2] == LOG_ZERO


def test_rr_at_n920_carries_no_window_noise():
    # the whole correction over d0 = 0.2 lies below half an ulp of 0.2; the
    # rounding noise of 1 - (sum kept) made it 0.2 + 5.7e-13
    assert bns._weight_window(920, 0.25)[2] == pytest.approx(-94.45918688525677, rel=1e-12, abs=0)
    assert bns.upper_bound_rr(920, 0.3, 0.25, 0.2) == 0.2


def test_threshold_exact_tie_is_admitted():
    d, left = bns.hamming_ball_threshold(np.log([1.0, 1.0, 1.0, 1.0]), math.log(2.0))
    assert (d, left) == (2, LOG_ZERO)


def test_threshold_budget_below_first_mass():
    assert bns.hamming_ball_threshold(np.log([1.0, 1.0]), -1.0) == (0, -1.0)


def test_threshold_infinite_budget_takes_everything():
    d, _ = bns.hamming_ball_threshold(np.log([1.0, 2.0, 3.0]), math.inf)
    assert d == 3


def test_threshold_admits_no_sum_above_the_budget():
    # the running sum ln 2 lies 5e-14 above the budget: strictly not admitted
    budget = math.log(2.0) - 5e-14
    d, left = bns.hamming_ball_threshold(np.log([1.0, 1.0]), budget)
    assert d == 1
    assert left == pytest.approx(math.log(1.0 - 1e-13), rel=1e-3)


def test_total_mass_over_weights():
    n, p, rate = 12, 0.4, 0.5
    z = solve(BinaryNonSymmetricSource(p), rate).marginal_one_prob
    total = 0.0
    for w in range(n + 1):
        weight = comb(n, w) * p**w * (1 - p) ** (n - w)
        total += weight * np.exp(_log_distance_law(n, w, z)).sum()
    assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------

def _oracle_paired_sum(n, rate, p):
    """Explicit 2^n-entry arrays, paired by sorting (float arithmetic)."""
    sol = solve(BinaryNonSymmetricSource(p), rate)
    d = sol.dstar
    q = 2.0 ** (n * rate)
    d_t = 0
    while d_t <= n and q * sum(comb(n, j) for j in range(d_t + 1)) <= 2.0**n:
        d_t += 1
    k_left = 2.0**n - q * sum(comb(n, j) for j in range(d_t))
    a = []
    for kk in range(n + 1):
        a.extend([p**kk * (1 - p) ** (n - kk)] * comb(n, kk))
    b = []
    for i in range(d_t):
        b.extend([i * math.log(d) + (n - i) * math.log1p(-d)] * int(round(q * comb(n, i))))
    b.extend([d_t * math.log(d) + (n - d_t) * math.log1p(-d)] * int(round(k_left)))
    a.sort(reverse=True)
    b.sort(reverse=True)
    return sol, sum(x * y for x, y in zip(a, b))


@pytest.mark.parametrize("n,rate,p", [(6, 0.5, 0.4), (10, 0.5, 0.4), (8, 0.25, 0.3), (10, 0.5, 0.2)])
def test_lower_bound_vs_explicit_arrays(n, rate, p):
    # integer Q needed so the explicit multiset has whole multiplicities
    assert float(n * rate).is_integer()
    sol, s = _oracle_paired_sum(n, rate, p)
    want = sol.dstar + sol.lambda_hat_nats / n * (
        n * rate * math.log(2) - (s + n * (-p * math.log(p) - (1 - p) * math.log1p(-p)))
    )
    assert bns.lower_bound(n, rate, p) == pytest.approx(want, rel=1e-10)


def test_rearrangement_beats_random_pairings():
    # sorted pairing dominates any sampled permutation (both arrays explicit)
    n, rate, p = 8, 0.5, 0.4
    sol, s_sorted = _oracle_paired_sum(n, rate, p)
    d = sol.dstar
    q = 2.0 ** (n * rate)
    d_t = 0
    while d_t <= n and q * sum(comb(n, j) for j in range(d_t + 1)) <= 2.0**n:
        d_t += 1
    k_left = 2.0**n - q * sum(comb(n, j) for j in range(d_t))
    a = []
    for kk in range(n + 1):
        a.extend([p**kk * (1 - p) ** (n - kk)] * comb(n, kk))
    b = []
    for i in range(d_t):
        b.extend([i * math.log(d) + (n - i) * math.log1p(-d)] * int(round(q * comb(n, i))))
    b.extend([d_t * math.log(d) + (n - d_t) * math.log1p(-d)] * int(round(k_left)))
    a.sort(reverse=True)
    b_sorted = sorted(b, reverse=True)
    rng = np.random.default_rng(11)
    a_arr = np.array(a)
    b_arr = np.array(b_sorted)
    for _ in range(2000):
        perm = rng.permutation(len(b_arr))
        assert float(a_arr @ b_arr[perm]) <= s_sorted + 1e-12


def _bigint_lower(n, rate, p):
    """The rearrangement bound in exact arithmetic, p = a/b and Q = 2**(nR) integers.

    Walks the weight classes k ascending (C(n,k) words of probability
    a^k (b-a)^(n-k) / b^n) against the distance levels i ascending (Q C(n,i)
    slots each), pairing their common multiplicities until every word is served.
    """
    a, b = p.numerator, p.denominator
    q = 2 ** round(n * rate)
    num, k, i = 0, 0, 0
    words, slots, weight, unserved = 1, q, (b - a) ** n, 2**n
    while unserved:
        take = min(words, slots)
        num += take * weight * i
        unserved, words, slots = unserved - take, words - take, slots - take
        if not words:
            k += 1
            words, weight = comb(n, k), weight // (b - a) * a
        if not slots:
            i += 1
            slots = q * comb(n, i)
    return float(Fraction(num, n * b**n))


@pytest.mark.parametrize("n,rate,p", [(600, 0.3, "1/4"), (1000, 0.1, "1/10"), (2000, 0.3, "1/4"), (2000, 0.5, "1/2")])
def test_lower_bound_vs_bigint_oracle(n, rate, p):
    p = Fraction(p)
    assert bns.lower_bound(n, rate, float(p)) == pytest.approx(_bigint_lower(n, rate, p), rel=1e-13, abs=0)


@pytest.mark.parametrize("n,rate,p", [(10, 0.5, 0.25), (12, 0.25, 0.1), (8, 0.5, 0.5), (12, 0.5, 0.4)])
def test_lower_bound_below_random_codebooks(n, rate, p):
    # the converse holds for every codebook; these are drawn from the optimal marginal
    source = BinaryNonSymmetricSource(p)
    z = solve(source, rate).marginal_one_prob
    rng = np.random.default_rng(7)
    q = round(2.0 ** (n * rate))
    best = min(exact_distortion(source, Codebook(n, (rng.random((q, n)) < z).astype(np.int8)))
               for _ in range(200))
    assert bns.lower_bound(n, rate, p) <= best


def test_lower_bound_residue_nonnegative():
    for (n, rate, p) in [(4, 0.5, 0.4), (16, 0.5, 0.4), (64, 0.25, 0.3), (256, 0.25, 0.1)]:
        sol = solve(BinaryNonSymmetricSource(p), rate)
        v = bns.lower_bound(n, rate, p)
        assert v >= sol.dstar - 1e-10


def test_lower_bound_asymptote_p04():
    sol = solve(BinaryNonSymmetricSource(0.4), 0.5)
    for n in (16, 64, 256):
        assert bns.lower_bound(n, 0.5, 0.4) >= sol.dstar - 1e-12


# ---------------------------------------------------------------------------
# ordered-statistics upper bound
# ---------------------------------------------------------------------------

def _oracle_os(n, rate, p, eps):
    z = solve(BinaryNonSymmetricSource(p), rate).marginal_one_prob
    q = 2.0 ** (n * rate)
    budget = math.log(1 / eps) / (q - 1)
    total = 0.0
    for w in range(n + 1):
        x = np.array([1] * w + [0] * (n - w))
        pmf = np.zeros(n + 1)
        for word in range(1 << n):
            y = (word >> np.arange(n)) & 1
            d = int((y != x).sum())
            pmf[d] += z ** y.sum() * (1 - z) ** (n - y.sum())
        acc = 0.0
        t = n
        for dd in range(n + 1):
            acc += pmf[dd]
            if acc >= budget:
                t = dd
                break
        weight = comb(n, w) * p**w * (1 - p) ** (n - w)
        total += weight * ((1 - eps) * t / n + eps / 2)
    return total


def test_upper_os_vs_exhaustive_oracle():
    got = bns.upper_bound_os(10, 0.5, 0.4, 0.01)
    want = _oracle_os(10, 0.5, 0.4, 0.01)
    assert got.value == pytest.approx(want, rel=1e-10)
    assert not got.degenerate


def test_upper_os_eps_sweep_range():
    for eps in (0.001, 0.01, 0.2):
        v = bns.upper_bound_os(40, 0.5, 0.4, eps).value
        assert 0.0 < v < 1.0


def test_upper_os_degenerate():
    r = bns.upper_bound_os(4, 0.1, 0.4, 0.01)
    assert r.degenerate


def test_upper_bounds_pinned_values():
    # recorded once the discarded weight mass became a sum over the weights
    # outside the window (it was 1 - sum kept, about 2e-13 of rounding noise
    # here); the OS bound must not move at all, the RR bound only by roundoff
    p, rate, d0 = 0.25, 0.3, 0.1314047333665419
    assert inverse_binary_entropy(binary_entropy(p) - 0.25) == pytest.approx(d0, rel=1e-12, abs=0)
    for n, os_value, threshold, rr_value in [
        (200, 0.12936907369759928, 77, 0.22252740091510714),
        (600, 0.12192659255924593, 157, 0.16486032977277357),
    ]:
        r = bns.upper_bound_os(n, rate, p, 0.01)
        assert (r.value, r.threshold) == (os_value, threshold)
        assert bns.upper_bound_rr(n, rate, p, d0) == pytest.approx(rr_value, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# reference-rate upper bound
# ---------------------------------------------------------------------------

def _oracle_rr(n, rate, p, d0):
    z0 = (p - d0) / (1 - 2 * d0)
    q = 2.0 ** (n * rate)
    budget = (1 / q) * ((q - 1) / q) ** (q - 1)
    total = 0.0
    for w in range(n + 1):
        x = np.array([1] * w + [0] * (n - w))
        pmf = np.zeros(n + 1)
        for word in range(1 << n):
            y = (word >> np.arange(n)) & 1
            d = int((y != x).sum())
            pmf[d] += z0 ** y.sum() * (1 - z0) ** (n - y.sum())
        acc = 0.0
        dx = n + 1
        for dd in range(n + 1):
            if acc + pmf[dd] > budget:
                dx = dd
                break
            acc += pmf[dd]
        px = p**w * (1 - p) ** (n - w)
        val = sum(pmf[j] * d0**j * (1 - d0) ** (n - j) / px for j in range(min(dx, n + 1)))
        if dx <= n:
            val += (budget - acc) * d0**dx * (1 - d0) ** (n - dx) / px
        u_w = z0 * (1 - w / n) + (1 - z0) * w / n
        total += comb(n, w) * px * u_w * val
    return d0 + total


def test_upper_rr_vs_exhaustive_oracle():
    got = bns.upper_bound_rr(12, 0.5, 0.4, 0.12)
    want = _oracle_rr(12, 0.5, 0.4, 0.12)
    assert got == pytest.approx(want, rel=1e-9)


def test_upper_rr_bounded_below_by_reference():
    for n in (12, 64, 256):
        assert bns.upper_bound_rr(n, 0.5, 0.4, 0.12) >= 0.12


def test_upper_rr_domain():
    with pytest.raises(ValueError):
        bns.upper_bound_rr(12, 0.5, 0.4, 0.05)  # below D
    with pytest.raises(ValueError):
        bns.upper_bound_rr(12, 0.5, 0.4, 0.45)  # above p


# ---------------------------------------------------------------------------
# collapse to the single weight class at p = 1/2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 16, 32])
def test_half_collapse_matches_every_weight_class(n):
    # at p = 1/2 the bounds evaluate the class w = 0 alone; here the general
    # per-class formulas are summed over every w with Binomial(n, 1/2) weights
    rate, eps, d0 = 0.5, 0.01, inverse_binary_entropy(0.55)
    q = 2.0 ** (n * rate)
    os_budget = math.log(1 / eps) / (q - 1)
    rr_budget = (1 / q) * ((q - 1) / q) ** (q - 1)
    z = solve(BinaryNonSymmetricSource(0.5), rate).marginal_one_prob
    z0 = (0.5 - d0) / (1 - 2 * d0)
    os_total = rr_total = 0.0
    for w in range(n + 1):
        weight = comb(n, w) * 0.5**n
        cum = np.cumsum(np.exp(_log_distance_law(n, w, z)))
        t = min(int(np.searchsorted(cum, os_budget, side="right")), n)
        os_total += weight * ((1 - eps) * t / n + eps / 2)
        pmf = np.exp(_log_distance_law(n, w, z0))
        acc, val = 0.0, 0.0
        for j in range(n + 1):
            ratio = d0**j * (1 - d0) ** (n - j) / 0.5**n
            if acc + pmf[j] > rr_budget:
                val += (rr_budget - acc) * ratio
                break
            acc += pmf[j]
            val += pmf[j] * ratio
        u_w = z0 * (1 - w / n) + (1 - z0) * w / n
        rr_total += weight * u_w * val
    assert bns.upper_bound_os(n, rate, 0.5, eps).value == pytest.approx(os_total, rel=1e-12, abs=0)
    assert bns.upper_bound_rr(n, rate, 0.5, d0) == pytest.approx(d0 + rr_total, rel=1e-12, abs=0)


def test_sandwich_bns():
    sol = solve(BinaryNonSymmetricSource(0.4), 0.5)
    for n in (10, 50, 200):
        lo = bns.lower_bound(n, 0.5, 0.4)
        hi = bns.upper_bound_os(n, 0.5, 0.4, 0.01).value
        assert sol.dstar - 1e-12 <= lo <= hi + 1e-12
