"""The best codebook at tiny n, as an oracle for the lower bounds.

Each case pins an optimal codebook of Q = floor(2**(nR)) words (word y has
coordinate k equal to (y >> k) & 1) and its distortion, which no codebook of
Q words beats. The bss optima are exact fractions with denominator n 2**n.
Each optimum at n <= 6 is re-solved here: by brute force over codebooks
where that is cheap, with codeword 0 fixed for the bss since translation
keeps a bss codebook's distortion, and otherwise as the k-median MILP. The
n = 7 and 8 optima were solved once by the same MILP (codeword 0 left free
for the bns), which took 2 to 30 s each on a 2-vCPU VM, so only their pins
run. A lower bound must not exceed the optimum. Upper bounds are not
checked: they take Q as the real 2**(nR), and at small n that can put them
below the optimum at floor(Q) words.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from rdflb import bns, bss
from rdflb.ratedistortion import BinaryNonSymmetricSource, BinarySymmetricSource
from rdflb.simulate import Codebook, ExperimentConfig, exact_distortion

BSS, BNS = BinarySymmetricSource(), BinaryNonSymmetricSource(0.25)

# source, n, rate, optimal codebook, its distortion, how the optimum is re-solved (None: not in tier-1)
OPTIMA = {
    "bss_n4": (BSS, 4, 0.5, [0, 1, 14, 15], Fraction(3, 16), "brute"),
    "bss_n5": (BSS, 5, 0.5, [0, 1, 6, 26, 29], Fraction(33, 160), "brute"),
    "bss_n6": (BSS, 6, 0.5, [0, 15, 22, 25, 35, 44, 53, 58], Fraction(1, 6), "milp"),
    "bns_n6": (BNS, 6, 0.3, [0, 1, 2], 0.17708333333333334, "brute"),
    "bss_n7": (BSS, 7, 0.5, [0, 13, 39, 52, 59, 67, 78, 85, 88, 105, 114], Fraction(157, 896), None),
    "bss_n8": (BSS, 8, 0.5, [0, 15, 28, 35, 53, 58, 69, 74, 86, 89, 108, 112, 182, 185, 195, 255],
               Fraction(11, 64), None),
    "bss_n8_quarter": (BSS, 8, 0.25, [0, 119, 186, 205], Fraction(145, 512), None),
    "bns_n7": (BNS, 7, 0.3, [0, 2, 8, 32], 0.16741071428571427, None),
}


def _distances(n: int) -> np.ndarray:
    words = np.arange(1 << n)
    return np.bitwise_count(words[:, None] ^ words[None, :]).astype(np.int64)


def _weights(source, n: int) -> tuple[np.ndarray, int]:
    """Integer word weights and their scale: P(x) = weight[x] / scale."""
    p = Fraction(source.p) if isinstance(source, BinaryNonSymmetricSource) else Fraction(1, 2)
    scale = p.denominator**n
    w = np.bitwise_count(np.arange(1 << n)).tolist()
    return np.array([int(p**k * (1 - p) ** (n - k) * scale) for k in w], dtype=np.int64), scale


def _brute_total(n: int, q: int, weight: np.ndarray, fix_zero: bool) -> int:
    """min over Q-word codebooks of sum_x weight[x] d(x, codebook)."""
    pool = range(1, 1 << n) if fix_zero else range(1 << n)
    books = np.array(list(itertools.combinations(pool, q - fix_zero)), dtype=np.int64)
    if fix_zero:
        books = np.hstack([np.zeros((len(books), 1), dtype=np.int64), books])
    return int((weight @ _distances(n)[:, books].min(axis=2)).min())


def _milp_total(n: int, q: int, weight: np.ndarray) -> int:
    """The same minimum with codeword 0 fixed, as the k-median MILP.

    o_y in {0, 1} marks y as a codeword and a_xy in [0, 1] serves x by y,
    with sum_y a_xy = 1, a_xy <= o_y and sum_y o_y <= Q; the variables are
    the m = 2**n o_y, then a_xy in row-major order.
    """
    m = 1 << n
    a = np.arange(m * m)
    served = sparse.csr_array((np.ones(m * m), (a // m, m + a)), shape=(m, m + m * m))
    open_only = sparse.csr_array((np.r_[np.ones(m * m), -np.ones(m * m)], (np.r_[a, a], np.r_[m + a, a % m])),
                                 shape=(m * m, m + m * m))
    size = np.r_[np.ones(m), np.zeros(m * m)][None, :]
    lower = np.zeros(m + m * m)
    lower[0] = 1.0
    res = milp(np.r_[np.zeros(m), (weight[:, None] * _distances(n)).ravel()],
               integrality=np.r_[np.ones(m), np.zeros(m * m)], bounds=Bounds(lower, 1.0),
               constraints=[LinearConstraint(served, 1.0, 1.0), LinearConstraint(open_only, -np.inf, 0.0),
                            LinearConstraint(size, 0.0, q)])
    assert res.success
    total = round(res.fun)
    assert abs(res.fun - total) < 1e-6
    return total


@pytest.mark.parametrize("case", OPTIMA)
def test_pinned_codebook_reaches_its_pin(case):
    source, n, rate, words, pin, _ = OPTIMA[case]
    assert len(words) == ExperimentConfig(source, n, rate, 1, 0).codebook_size
    cb = Codebook(n, (np.array(words)[:, None] >> np.arange(n)) & 1)
    assert exact_distortion(source, cb) == pytest.approx(float(pin), rel=1e-15)


@pytest.mark.parametrize("case", [case for case, spec in OPTIMA.items() if spec[5]])
def test_optimum_is_re_solved(case):
    source, n, rate, words, pin, how = OPTIMA[case]
    weight, scale = _weights(source, n)
    fix_zero = isinstance(source, BinarySymmetricSource)
    if how == "milp":
        total = _milp_total(n, len(words), weight)
    else:
        total = _brute_total(n, len(words), weight, fix_zero)
    got = Fraction(total, n * scale)
    if isinstance(pin, Fraction):
        assert got == pin
    else:
        assert float(got) == pytest.approx(pin, abs=1e-12)


# At n = 8, R = 1/2 the sphere-covering sum is exactly the optimum 11/64, and
# bns.lower_bound(8, 0.5, 0.5) rounds one ulp above it (bss.lower_bound lands
# 2.8e-17 below); both routes carry rounding errors of either sign.
ROUNDS_ABOVE = pytest.mark.xfail(strict=True, reason="bns.lower_bound at p = 1/2 rounds 2.8e-17 above 11/64")


@pytest.mark.parametrize("case", [pytest.param(case, marks=ROUNDS_ABOVE) if case == "bss_n8" else case
                                  for case in OPTIMA])
def test_lower_bounds_do_not_exceed_the_optimum(case):
    # compared as Fractions: at n = 6, R = 1/2 both bss routes land within 2e-16 of 1/6
    source, n, rate, _, pin, _ = OPTIMA[case]
    if isinstance(source, BinarySymmetricSource):
        lowers = [bss.lower_bound(n, rate), bns.lower_bound(n, rate, 0.5)]
    else:
        lowers = [bns.lower_bound(n, rate, source.p)]
    assert all(Fraction(v) <= Fraction(pin) for v in lowers)
