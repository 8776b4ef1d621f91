import math

import numpy as np
import pytest

from rdflb import quadrature
from rdflb.quadrature import bracket_solve, find_root, gl_nodes, gl_panels, gl_partial, gl_rule
from rdflb.special import log_reg_gamma_lower


def _gl_integral(f, edges, k=32):
    nodes, wgt = gl_panels(np.asarray(edges, dtype=float), k)
    return float((f(nodes) * wgt).sum())


def test_integrate_linear():
    # a k-point rule is exact for polynomials up to degree 2k - 1
    assert _gl_integral(lambda x: x, [0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)
    assert _gl_integral(lambda x: x**7, [0.0, 0.5, 2.0], k=4) == pytest.approx(2.0**8 / 8, rel=1e-14)


def test_integrate_gaussian_normalization():
    f = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    assert _gl_integral(f, np.linspace(-8.0, 8.0, 5)) == pytest.approx(1.0, abs=1e-12)


def test_integrate_sine():
    assert _gl_integral(np.sin, [0.0, math.pi]) == pytest.approx(2.0, abs=1e-14)


def test_integrate_empty_interval():
    nodes, wgt = gl_panels(np.array([3.0, 3.0]))
    assert np.all(nodes == 3.0) and np.all(wgt == 0.0)
    assert _gl_integral(lambda x: 1e9 + 0.0 * x, [3.0, 3.0]) == 0.0


def test_gl_rule_is_gl_panels_per_row():
    edges = np.array([0.0, 0.5, 2.0, 2.0, 5.0])
    t, w = gl_rule(edges[:-1], edges[1:], 6)
    assert t.shape == w.shape == (4, 6)
    nodes, wgt = gl_panels(edges, 6)
    assert np.array_equal(t.ravel(), nodes) and np.array_equal(w.ravel(), wgt)


@pytest.mark.parametrize("k", [1, 4, 8])
def test_gl_partial_integrates_the_interpolant(k):
    # exact for every polynomial of degree < k, read at any y in [-1, 1]
    x, w = gl_nodes(k)
    y = np.array([-1.0, -0.7, 0.0, 0.31, 1.0])
    weights = gl_partial(y, k)
    assert weights.shape == (5, k)
    assert np.all(weights[0] == 0.0)
    np.testing.assert_allclose(weights[-1], w, rtol=0.0, atol=1e-15)
    for d in range(k):
        want = (y ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
        np.testing.assert_allclose(weights @ x**d, want, rtol=0.0, atol=1e-14)
    # a smooth non-polynomial: the partial integral of cos converges with k
    if k == 8:
        np.testing.assert_allclose(weights @ np.cos(x), np.sin(y) + math.sin(1.0), atol=1e-6)


def test_find_root_examples():
    assert find_root(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == pytest.approx(1.0, abs=1e-12)
    assert find_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-13) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_find_root_matches_inverse_entropy():
    from rdflb.special import binary_entropy, inverse_binary_entropy

    r = find_root(lambda q: binary_entropy(q) - 0.5, 1e-12, 0.5, 1e-14)
    assert r == pytest.approx(inverse_binary_entropy(0.5), abs=1e-10)
    assert r == pytest.approx(0.110027864, abs=1e-8)


def test_find_root_bracket_error():
    with pytest.raises(ValueError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_deterministic():
    f = lambda x: math.cos(x) - x
    assert find_root(f, 0.0, 1.0) == find_root(f, 0.0, 1.0)


class _Counted:
    """f(x, lanes) = x**k - c per lane, counting calls and points."""

    def __init__(self, k, c):
        self.k = np.asarray(k, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.calls = 0
        self.points = 0

    def __call__(self, x, lanes):
        self.calls += 1
        self.points += x.size
        return x ** self.k[lanes] - self.c[lanes]


# x**k - c lanes with roots from 1.26 to 10
_K = [1.0, 2.0, 3.0, 5.0, 0.5, 4.0]
_C = [1.3, 2.0, 2.0, 7.0, 2.5, 1e4]


def test_bracket_solve_lanes_with_different_roots():
    # k c >= 1 puts slope x root >= 1, so the residual stop at 1e-12 is
    # also a 1e-12 relative stop in x
    k, c = _K, _C
    f = _Counted(k, c)
    x = bracket_solve(f, np.zeros(6), np.full(6, 16.0))
    want = np.asarray(c) ** (1.0 / np.asarray(k))
    assert np.all(np.abs(x - want) <= 1e-12 * want)
    assert np.all(f(x, np.arange(6)) >= 0.0)


def test_bracket_solve_minus_infinity_at_lo():
    def f(x, lanes):
        with np.errstate(divide="ignore"):
            return np.where(x > 0.5, np.log(np.maximum(x - 0.5, 0.0)), -np.inf) - np.log(1.5)

    x = bracket_solve(f, [0.0, 0.5], [5.0, 3.0])
    assert x == pytest.approx([2.0, 2.0], rel=1e-12)
    assert np.all(f(x, np.arange(2)) >= 0.0)


def test_bracket_solve_deterministic():
    f = _Counted([3.0, 1.5], [2.0, 0.7])
    first = bracket_solve(f, [0.0, 0.0], [2.0, 2.0])
    assert np.array_equal(first, bracket_solve(f, [0.0, 0.0], [2.0, 2.0]))


def test_bracket_solve_cap_returns_hi(monkeypatch):
    # a capped lane returns the hi of its bracket so far: f >= 0 there,
    # and more rounds only move it down towards the root
    f = _Counted([3.0], [2.0])
    capped = []
    for m in range(10):
        monkeypatch.setattr(quadrature, "_MAX_ITER", m)
        capped.append(bracket_solve(f, 0.0, 2.0)[0])
    assert capped[0] == 2.0
    assert all(b <= a for a, b in zip(capped, capped[1:]))
    assert np.all(f(np.array(capped), np.zeros(10, dtype=int)) >= 0.0)
    assert any(2.0 ** (1.0 / 3.0) + 1e-6 < x < 2.0 for x in capped)


def test_bracket_solve_is_not_plain_bisection():
    # bisection would need about 41 rounds to reach 1e-12 relative width
    f = _Counted([3.0], [2.0])
    x = bracket_solve(f, 0.0, 2.0)[0]
    assert x == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
    assert f.calls <= 20


def test_bracket_solve_only_evaluates_running_lanes():
    # a lane whose bracket is already tight costs only its end points
    f = _Counted([1.0, 3.0], [1.0, 2.0])
    bracket_solve(f, [1.0 - 1e-14, 0.0], [1.0 + 1e-14, 2.0])
    assert f.points == 4 + (f.calls - 1)


def test_bracket_solve_needs_a_bracket():
    f = _Counted([2.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        bracket_solve(f, [0.0, 2.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        bracket_solve(f, [0.0, 0.0], [2.0, 2.0, 2.0])


def test_bracket_solve_with_known_ends_skips_their_evaluation():
    lo, hi = [0.0, 0.0, 1.0 - 1e-14], [2.0, 16.0, 1.0 + 1e-14]
    cold = _Counted([3.0, 2.0, 1.0], [2.0, 5.0, 1.0])
    x = bracket_solve(cold, lo, hi)
    f = _Counted([3.0, 2.0, 1.0], [2.0, 5.0, 1.0])
    ends = f(np.array(lo + hi), np.tile(np.arange(3), 2))
    calls = f.calls
    assert np.array_equal(bracket_solve(f, lo, hi, ends[:3], ends[3:]), x)
    assert f.calls - calls == cold.calls - 1
    with pytest.raises(ValueError):
        bracket_solve(f, lo, hi, ends[3:], ends[:3])


class _LogCdf:
    """ln P(32, t^2/2) - ln p0, counting calls: the chi-squared(64) log-CDF at
    t^2 against the covering budget of n = 64, R = 1/2, eps = 0.005; -inf at 0."""

    log_p0 = math.log(math.log(200.0)) - math.log(2.0**32 - 2.0)

    def __init__(self):
        self.calls = 0

    def __call__(self, t, lanes):
        self.calls += 1
        with np.errstate(divide="ignore"):
            return log_reg_gamma_lower(32.0, 0.5 * t**2) - self.log_p0


def _solve_alone():
    """Calls of f per solve, ends included: each x^k - c lane of
    ``test_bracket_solve_lanes_with_different_roots`` alone on [0, 16], then
    the log-CDF lane on [0, 16].  Every root is checked on its f >= 0 side."""
    calls = []
    for f in [_Counted([k], [c]) for k, c in zip(_K, _C)] + [_LogCdf()]:
        x = bracket_solve(f, 0.0, 16.0)
        calls.append(f.calls)
        assert f(x, np.zeros(1, dtype=int))[0] >= 0.0
    return calls


# _solve_alone's calls with Pegasus steps; the Illinois step took
# [2, 11, 17, 24, 9, 12, 10]
PEGASUS_CALLS = [2, 11, 16, 22, 8, 10, 8]


def test_bracket_solve_pegasus_counts(monkeypatch):
    # the Pegasus step's calls are pinned, and none exceeds the Illinois
    # step's, the same solver with the factor 1/2 in place of Pegasus's
    pegasus = _solve_alone()
    monkeypatch.setattr(quadrature, "_pegasus", lambda g_old, g_new: 0.5)
    illinois = _solve_alone()
    assert pegasus == PEGASUS_CALLS
    assert all(p <= i for p, i in zip(pegasus, illinois))
    assert sum(pegasus) < sum(illinois)


def test_cached_rules_are_read_only():
    x, w = gl_nodes(8)
    assert gl_nodes(8)[0] is x
    for table in (x, w, quadrature._interpolant_coef(8)):
        with pytest.raises(ValueError):
            table[0] = 0.0
