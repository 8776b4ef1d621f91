import math

import numpy as np
import pytest

from rdflb import simulate
from rdflb.ratedistortion import BinaryNonSymmetricSource, BinarySymmetricSource, GaussianSource
from rdflb.simulate import (
    BudgetError,
    Codebook,
    ExperimentConfig,
    delta_residue,
    duality_error_prob,
    exact_distortion,
    mc_mean_distortion,
    quantize,
)
from rdflb.special import inverse_binary_entropy

BSS, BNS = BinarySymmetricSource(), BinaryNonSymmetricSource(0.25)

# ---------------------------------------------------------------------------
# Monte Carlo: (mean, stderr) pinned to the whole-chunk implementation
# ---------------------------------------------------------------------------

# one full chunk (4096 rows) plus a partial one; both cross slice boundaries
TRIALS = 4096 + 1000
FIXED_CB = Codebook(8, (np.random.default_rng(3).random((16, 8)) < 0.5).astype(np.uint8))

MC_CASES = {
    "bss": (dict(source=BSS, n=8, rate=0.5),
            (0.19895506279434852, 0.0012834435834539464)),
    "bns": (dict(source=BNS, n=10, rate=0.3),
            (0.17980769230769234, 0.0014914115632473173)),
    "bns_uniform": (dict(source=BNS, n=10, rate=0.3, codebook_law="uniform"),
                    (0.2779042386185243, 0.0013219262922858478)),
    "gauss": (dict(source=GaussianSource(1.0), n=8, rate=0.5),
              (0.6836575706789005, 0.005140075069834119)),
    "gauss_rm": (dict(source=GaussianSource(1.0), n=8, rate=0.5, rm=2.2),
                 (0.6712686054219246, 0.005180065894379859)),
    "fixed": (dict(source=BSS, n=8, rate=0.5, codebook_law="fixed", codebook=FIXED_CB),
              (0.19287186028257458, 0.0011632637692209765)),
}


@pytest.mark.parametrize("case", MC_CASES)
def test_mc_mean_distortion_is_pinned(case):
    kwargs, want = MC_CASES[case]
    assert mc_mean_distortion(ExperimentConfig(trials=TRIALS, seed=7, **kwargs)) == want


@pytest.mark.parametrize("case", ["bss", "bns", "gauss"])
def test_mc_result_does_not_depend_on_slice_size(monkeypatch, case):
    kwargs, want = MC_CASES[case]
    monkeypatch.setattr(simulate, "_SLICE", 7)
    assert mc_mean_distortion(ExperimentConfig(trials=TRIALS, seed=7, **kwargs)) == want


def test_mc_masks_negative_seed():
    cfg = dict(source=BSS, n=8, rate=0.5, trials=300)
    want = (0.19833333333333333, 0.00484476601198532)
    assert mc_mean_distortion(ExperimentConfig(seed=-1, **cfg)) == want
    assert mc_mean_distortion(ExperimentConfig(seed=2**64 - 1, **cfg)) == want


def test_chunk_rng_is_keyed_by_seed_and_chunk():
    def draw(seed, chunk):
        return simulate._chunk_rng(seed, chunk).random(8)

    assert np.array_equal(draw(5, 0), draw(5, 0))
    assert np.array_equal(draw(5, 3), draw(5, 3))
    assert not np.array_equal(draw(5, 0), draw(5, 1))
    assert not np.array_equal(draw(5, 0), draw(6, 0))


# ---------------------------------------------------------------------------
# enumeration oracles against a brute-force quantize loop
# ---------------------------------------------------------------------------

def _brute_force(source, cb, rate):
    """(exact distortion, delta residue, duality error) from quantize over every word."""
    n = cb.n
    q0 = inverse_binary_entropy(1.0 - rate)
    ed = dr = q_sum = 0.0
    for i in range(1 << n):
        x = np.array([(i >> k) & 1 for k in range(n)], dtype=np.uint8)
        _, dist = quantize(x, cb)
        d = round(dist * n)
        w = int(x.sum())
        p = source.p ** w * (1 - source.p) ** (n - w) if isinstance(source, BinaryNonSymmetricSource) else 2.0**-n
        q_xy = q0**d * (1 - q0) ** (n - d)
        ed += p * dist
        dr -= p * math.log(q_xy / p)
        q_sum += q_xy
    return ed, n * rate * math.log(2.0) + dr, 1.0 - q_sum / cb.size


def _codebook_with_duplicate(n, q, seed):
    cw = (np.random.default_rng(seed).random((q, n)) < 0.5).astype(np.uint8)
    cw[q // 2] = cw[1]
    return Codebook(n, cw)


@pytest.mark.parametrize("n,q,seed", [(6, 8, 1), (10, 32, 2)])
def test_oracles_match_brute_force(n, q, seed):
    cb = _codebook_with_duplicate(n, q, seed)
    rate = math.log2(q) / n
    ed, dr, pe = _brute_force(BSS, cb, rate)
    assert exact_distortion(BSS, cb) == pytest.approx(ed, rel=1e-12)
    assert delta_residue(BSS, cb) == pytest.approx(dr, rel=1e-12)
    assert duality_error_prob(BSS, cb) == pytest.approx(pe, rel=1e-12)
    assert exact_distortion(BNS, cb) == pytest.approx(_brute_force(BNS, cb, rate)[0], rel=1e-12)


def test_assignments_send_ties_to_the_smaller_index():
    cb = _codebook_with_duplicate(10, 32, 2)
    best_j, best_d = simulate._assignments(cb)
    assert not np.any(best_j == 16)  # codeword 16 duplicates codeword 1
    for i in range(0, 1 << 10, 7):
        x = np.array([(i >> k) & 1 for k in range(10)], dtype=np.uint8)
        j, dist = quantize(x, cb)
        assert (best_j[i], best_d[i]) == (j, round(dist * 10))


def test_oracles_are_pinned_at_n16():
    rng = simulate._chunk_rng(11, 2**32)
    cb = Codebook(16, (rng.random((256, 16)) < 0.5).astype(np.uint8))
    assert exact_distortion(BSS, cb) == 0.1606073379516602
    assert delta_residue(BSS, cb, 0.5) == 1.6917470324956625
    assert duality_error_prob(BSS, cb, 0.5) == 0.2945210903105251
    assert exact_distortion(BNS, cb) == 0.15585993476270238


@pytest.mark.parametrize("oracle", [exact_distortion, delta_residue, duality_error_prob])
def test_oracles_refuse_bad_codebooks(oracle):
    with pytest.raises(ValueError, match="0/1"):
        oracle(BSS, Codebook(4, np.array([[0, 1, 2, 0], [1, 1, 0, 0]])))
    with pytest.raises(ValueError, match="0/1"):
        oracle(BSS, Codebook(4, np.array([[0.0, 0.5, 1.0, 0.0]])))
    with pytest.raises(ValueError, match="31 bits"):
        oracle(BSS, Codebook(32, np.zeros((2, 32), dtype=np.uint8)))
    with pytest.raises(BudgetError):
        oracle(BSS, Codebook(25, np.zeros((2, 25), dtype=np.uint8)))
