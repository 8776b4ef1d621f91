import math
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    with pytest.raises(ValueError):
        log_diff(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-700.0, max_value=700.0)),
    st.floats(min_value=-18.0, max_value=0.0),
)
@example(0.0, -17.0)
def test_log_diff_vs_mpmath(log_a, log10_gap):
    # gaps from 1e-18 to 1; below about 1.1e-16, e^(log_b - log_a) rounds to 1
    log_b = log_a - 10.0**log10_gap
    with mpmath.workdps(60):
        gap = mpmath.mpf(log_a) - mpmath.mpf(log_b)
        want = LOG_ZERO if gap == 0 else float(log_a + mpmath.log(-mpmath.expm1(-gap)))
    assert log_diff(log_a, log_b) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_log_binomial_small_exact():
    assert log_binomial(10, 0) == 0.0
    assert log_binomial(10, 2) == pytest.approx(math.log(45.0), rel=1e-14)
    # log_binomial is the reference for the row helper the bounds read
    row = log_binomial_row(10)
    assert row.tolist() == pytest.approx([log_binomial(10, j) for j in range(11)], rel=1e-14, abs=1e-14)


def test_log_factorial_table_is_shared_and_read_only():
    g = _log_factorials(1000)
    assert _log_factorials(1000) is g
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[3] = 0.0
    with pytest.raises(ValueError):
        g += 1.0
    assert g[10] == pytest.approx(math.lgamma(11.0), rel=1e-15, abs=0)


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
