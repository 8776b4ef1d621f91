import math
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln

from rdflb import logdomain
from rdflb.logdomain import LOG_ZERO, _log_factorials, log_binomial, log_binomial_row, log_diff, logsumexp


def test_log_sum_basic():
    assert logsumexp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)


def test_log_sum_empty_is_exact_zero():
    assert logsumexp([]) == LOG_ZERO
    assert logsumexp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO


def test_log_sum_huge_powers_of_two():
    # 2**1000 + 2**990, checked against the exact closed form
    got = logsumexp([1000 * math.log(2), 990 * math.log(2)])
    want = 1000 * math.log(2) + math.log1p(2.0**-10)
    assert got == pytest.approx(want, rel=1e-15, abs=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-700.0, max_value=700.0), min_size=1, max_size=30), st.randoms())
def test_log_sum_order_independent(logs, rnd):
    a = logsumexp(logs)
    shuffled = logs[:]
    rnd.shuffle(shuffled)
    b = logsumexp(shuffled)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-700.0, max_value=700.0), min_size=1, max_size=10),
    st.lists(st.floats(min_value=-700.0, max_value=700.0), min_size=1, max_size=10),
)
def test_log_sum_associative(xs, ys):
    whole = logsumexp(xs + ys)
    parts = logsumexp([logsumexp(xs), logsumexp(ys)])
    assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)


def test_log_diff():
    assert log_diff(math.log(3.0), math.log(1.0)) == pytest.approx(math.log(2.0), rel=1e-14)
    assert log_diff(math.log(2.0), LOG_ZERO) == pytest.approx(math.log(2.0))
    assert log_diff(0.0, 0.0) == LOG_ZERO
    assert type(log_diff(0.0, -1.0)) is float
    assert type(log_diff(np.float64(0.0), np.array(-1.0))) is float
    with pytest.raises(ValueError):
        log_diff(0.0, 1.0)
    # -inf in log_b gives log_a, also where log_a is -inf; log_a = -inf < log_b raises
    got = log_diff(np.array([1.0, LOG_ZERO, 0.0]), np.array([LOG_ZERO, LOG_ZERO, -1.0]))
    assert got.tolist() == [1.0, LOG_ZERO, log_diff(0.0, -1.0)]
    assert log_diff(LOG_ZERO, LOG_ZERO) == LOG_ZERO
    with pytest.raises(ValueError):
        log_diff(LOG_ZERO, -1.0)
    with pytest.raises(ValueError):
        log_diff(np.array([0.0, LOG_ZERO]), np.array([-1.0, 0.0]))
    # a negative difference up to 1e-12 is roundoff and clamped to exact zero
    assert log_diff(np.zeros(3), np.array([0.0, 1e-13, 1e-12])).tolist() == [LOG_ZERO] * 3
    with pytest.raises(ValueError):
        log_diff(np.zeros(2), np.array([-1.0, 2e-12]))
    # array against scalar either way round, and a row against a column;
    # every lane equals the scalar call on its own pair
    b = np.array([-3.0, -0.5, LOG_ZERO, 0.0])
    assert log_diff(0.0, b).tolist() == [log_diff(0.0, float(v)) for v in b]
    a = np.array([0.0, 2.0, 700.0])
    assert log_diff(a, -1.0).tolist() == [log_diff(float(v), -1.0) for v in a]
    grid = log_diff(a[:, None], b[None, :])
    assert grid.shape == (3, 4)
    assert grid.tolist() == [[log_diff(float(x), float(y)) for y in b] for x in a]


def _mp_log_diff(log_a, log_b):
    # 400 digits keep 1 - e^-gap exact to a double out to gap = 700
    with mpmath.workdps(400):
        gap = mpmath.mpf(log_a) - mpmath.mpf(log_b)
        return LOG_ZERO if gap == 0 else float(log_a + mpmath.log(-mpmath.expm1(-gap)))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-700.0, max_value=700.0)),
    st.floats(min_value=-18.0, max_value=0.0),
)
@example(0.0, -17.0)
def test_log_diff_vs_mpmath(log_a, log10_gap):
    # gaps from 1e-18 to 1; below about 1.1e-16, e^(log_b - log_a) rounds to 1
    log_b = log_a - 10.0**log10_gap
    want = _mp_log_diff(log_a, log_b)
    assert log_diff(log_a, log_b) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_log_diff_vector_vs_mpmath():
    # one call per log_a, with gaps on both sides of the switch at ln 2
    # between the expm1 and the log1p forms; at log_a = 0 the result is
    # about -e^-gap, which stays a normal double out to gap = 700
    ln2 = math.log(2.0)
    gaps = np.array([1e-15, 1e-9, 1e-3, 0.3, ln2 * (1 - 1e-15), ln2, ln2 * (1 + 1e-15), 0.7, 1.0, 5.0, 40.0, 700.0])
    for log_a in (0.0, -3.5, 12.25):
        log_b = log_a - gaps
        got = log_diff(log_a, log_b)
        for g, lb in zip(got, log_b):
            assert g == pytest.approx(_mp_log_diff(log_a, float(lb)), rel=1e-15, abs=0), (log_a, lb)


def test_log_binomial_small_exact():
    assert log_binomial(10, 0) == 0.0
    assert log_binomial(10, 2) == pytest.approx(math.log(45.0), rel=1e-14)
    # log_binomial is the reference for the row helper the bounds read
    row = log_binomial_row(10)
    assert row.tolist() == pytest.approx([log_binomial(10, j) for j in range(11)], rel=1e-14, abs=1e-14)


def test_log_factorial_table_is_shared_and_read_only():
    g = _log_factorials(1000)
    assert np.shares_memory(_log_factorials(1000), logdomain._LOG_FACT)
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[3] = 0.0
    with pytest.raises(ValueError):
        g += 1.0
    assert g[10] == pytest.approx(math.lgamma(11.0), rel=1e-15, abs=0)


def test_log_factorial_table_grows_to_the_values_of_a_fresh_one():
    # a larger m extends the one table and a smaller one reads its prefix;
    # gammaln works entry by entry, so every order gives a fresh table's bits
    for m in (7, 3000, 20, 5000, 0, 5001):
        g = _log_factorials(m)
        assert g.size == m + 1 and not g.flags.writeable
        assert g.tobytes() == gammaln(np.arange(1, m + 2)).tobytes()


def test_binomial_row_is_a_fresh_writable_array():
    row = log_binomial_row(50)
    row[0] = 1.0
    assert log_binomial_row(50)[0] == 0.0
    assert not np.shares_memory(_log_factorials(50), log_binomial_row(50))


@pytest.mark.parametrize("n,k", [(100, 37), (1000, 500), (10**6, 123456)])
def test_log_binomial_vs_bigint(n, k):
    exact = comb(n, k)
    # exact integer log: shift the big integer down to double precision
    shift = max(0, exact.bit_length() - 53)
    want = math.log(exact >> shift) + shift * math.log(2.0)
    assert log_binomial(n, k) == pytest.approx(want, rel=1e-12)


def test_log_binomial_domain():
    with pytest.raises(ValueError):
        log_binomial(5, 6)
    with pytest.raises(ValueError):
        log_binomial(5, -1)
