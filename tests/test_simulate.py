import math
from fractions import Fraction

import numpy as np
import pytest

from rdflb import simulate
from rdflb.ratedistortion import BinaryNonSymmetricSource, BinarySymmetricSource, GaussianSource, solve
from rdflb.simulate import (
    BudgetError,
    Codebook,
    ExperimentConfig,
    delta_residue,
    duality_error_prob,
    exact_distortion,
    mc_mean_distortion,
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
            (0.1978021978021978, 0.0012717101058016412)),
    "bns": (dict(source=BNS, n=10, rate=0.3),
            (0.1802394034536892, 0.0015204130276010724)),
    "bns_uniform": (dict(source=BNS, n=10, rate=0.3, codebook_law="uniform"),
                    (0.2778846153846154, 0.0013155825813035054)),
    "gauss": (dict(source=GaussianSource(1.0), n=8, rate=0.5),
              (0.6836575706789005, 0.005140075069834119)),
    "gauss_rm": (dict(source=GaussianSource(1.0), n=8, rate=0.5, rm=2.2),
                 (0.6712686054219246, 0.005180065894379859)),
    "fixed": (dict(source=BSS, n=8, rate=0.5, codebook_law="fixed", codebook=FIXED_CB),
              (0.19169446624803768, 0.0011760423860729347)),
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
    want = (0.19708333333333333, 0.004995062128818256)
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
# Monte Carlo against the closed-form random-coding distortion
# ---------------------------------------------------------------------------

def _binomial_pmf(n, p):
    k = np.arange(n + 1)
    return np.array([math.comb(n, i) for i in k], dtype=float) * p**k * (1 - p) ** (n - k)


def _random_coding_distortion(n, q, p, z):
    """E[D] = (1/n) sum_w P(W = w) sum_{d>=1} P(D_w >= d)**Q for Q i.i.d. Bernoulli(z)
    codewords and a Bernoulli(p) source word; D_w ~ Bin(w, 1 - z) + Bin(n - w, z)."""
    total = 0.0
    weight = _binomial_pmf(n, p)
    for w in range(n + 1):
        law = np.convolve(_binomial_pmf(w, 1 - z), _binomial_pmf(n - w, z))
        at_least = np.minimum(np.cumsum(law[::-1])[::-1], 1.0)
        total += weight[w] * (at_least[1:] ** q).sum()
    return total / n


def test_random_coding_closed_form_values():
    z = solve(BNS, 0.3).marginal_one_prob
    assert _random_coding_distortion(16, 256, 0.5, 0.5) == pytest.approx(0.1613679357, abs=1e-10)
    assert _random_coding_distortion(20, 64, 0.25, z) == pytest.approx(0.1546273241, abs=1e-10)


ORACLE_CASES = {
    "bss_n8": (dict(source=BSS, n=8, rate=0.5), 0.5, 0.5),
    "bss_n16": (dict(source=BSS, n=16, rate=0.5), 0.5, 0.5),
    "bns": (dict(source=BNS, n=10, rate=0.3), 0.25, None),
    "bns_uniform": (dict(source=BNS, n=10, rate=0.3, codebook_law="uniform"), 0.25, 0.5),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
@pytest.mark.parametrize("seed", range(1, 6))
def test_mc_matches_random_coding_closed_form(case, seed):
    kwargs, p, z = ORACLE_CASES[case]
    cfg = ExperimentConfig(trials=5000, seed=seed, **kwargs)
    if z is None:
        z = solve(cfg.source, cfg.rate).marginal_one_prob
    mean, se = mc_mean_distortion(cfg)
    assert abs(mean - _random_coding_distortion(cfg.n, cfg.codebook_size, p, z)) <= 4 * se


@pytest.mark.parametrize("seed", range(1, 6))
def test_mc_fixed_codebook_matches_enumeration(seed):
    cfg = ExperimentConfig(trials=5000, seed=seed, **MC_CASES["fixed"][0])
    mean, se = mc_mean_distortion(cfg)
    assert abs(mean - exact_distortion(BSS, FIXED_CB)) <= 4 * se


# ---------------------------------------------------------------------------
# packed Bernoulli bits
# ---------------------------------------------------------------------------

def _streams(seed=3):
    return simulate._chunk_rng(seed, 0), simulate._chunk_rng(seed, simulate._TIE_KEY)


def _reference_bits(p, shape, n, seed=3):
    """The packed draw lane by lane: U's digits against p's, the tie stream past digit 8.

    Returns the words and the number of tied lanes."""
    law = simulate._bit_law(p)
    rng, tie = _streams(seed)
    k = len(law.rounds)
    nb = (n + 7) // 8
    row_bytes = math.prod(shape[1:]) * nb * k
    out = np.zeros((shape[0], row_bytes // max(k, 1)), dtype=np.uint8)
    ties = 0
    for row in range(shape[0]):
        raw = rng.bit_generator.random_raw(-(-row_bytes // 8)).view(np.uint8)
        for e in range(out.shape[1]):
            for lane in range(8 if (e + 1) % nb else n - 8 * (nb - 1)):
                digits = [(raw[e * k + i] >> lane) & 1 for i in range(k)]
                differ = [i for i in range(k) if digits[i] != law.rounds[i]]
                if differ:
                    bit = law.rounds[differ[0]]
                elif law.tail.size:
                    ties += 1
                    u = tie.random(law.tail.size) * 2.0**53
                    differ = np.flatnonzero(u != law.tail)
                    bit = int(differ.size > 0 and u[differ[0]] < law.tail[differ[0]])
                else:
                    bit = 0
                out[row, e] |= bit << lane
    return out.reshape(*shape, nb), ties


@pytest.mark.parametrize("p", [0.5, 0.25, 1 / 3, 0.1763319320101495, 1e-5])
def test_packed_bits_match_lane_by_lane_reference(p):
    rng, tie = _streams()
    law = simulate._bit_law(p)
    got = simulate._draw_bits(rng, tie, law, (20, 16), 13)
    want, ties = _reference_bits(p, (20, 16), 13)
    assert np.array_equal(got, want)
    assert (ties > 0) == (law.tail.size > 0)


@pytest.mark.parametrize("p", [0.5, 1 / 3, 0.25, "marginal"])
def test_packed_bit_frequency(p):
    if p == "marginal":
        p = solve(BNS, 0.3).marginal_one_prob
    n, rows, q = 13, 2000, 64
    rng, tie = _streams()
    bits = np.unpackbits(simulate._draw_bits(rng, tie, simulate._bit_law(p), (rows, q), n),
                         axis=-1, count=n, bitorder="little")
    assert bits.size >= 10**6
    assert abs(bits.mean() - p) <= 5 * math.sqrt(p * (1 - p) / bits.size)


@pytest.mark.parametrize("p", [0.5, 0.25, 1 / 3])
def test_packed_padding_bits_are_zero(p):
    rng, tie = _streams()
    words = simulate._draw_bits(rng, tie, simulate._bit_law(p), (500, 16), 11)
    assert words.shape == (500, 16, 2)
    assert not np.any(words[..., 1] >> 3)


@pytest.mark.parametrize("p", [0.5, 0.25, 1 / 3, 0.1763319320101495, 1e-5, 0.0])
def test_bit_law_is_the_exact_expansion_of_p(p):
    law = simulate._bit_law(p)
    value = sum(Fraction(d, 2 ** (k + 1)) for k, d in enumerate(law.rounds))
    for j, group in enumerate(law.tail):
        assert group == int(group) and 0 <= group < 2**53
        value += Fraction(int(group), 2 ** (8 + 53 * (j + 1)))
    assert value == Fraction(p)
    assert len(law.rounds) <= 8 and (law.tail.size == 0 or len(law.rounds) == 8)
    assert not law.rounds or law.rounds[-1] == 1 or law.tail.size


def _next_raw(rng):
    return rng.bit_generator.random_raw(4)


def test_tie_stream_settles_lanes_past_the_eighth_digit():
    fresh = _next_raw(_streams()[1])
    rng, tie = _streams()
    simulate._draw_bits(rng, tie, simulate._bit_law(1 / 3), (100, 64), 16)
    assert not np.array_equal(_next_raw(tie), fresh)
    rng, tie = _streams()
    simulate._draw_bits(rng, tie, simulate._bit_law(0.25), (100, 64), 16)
    assert np.array_equal(_next_raw(tie), fresh)


def test_half_reads_one_raw_byte_per_output_byte():
    rng, tie = _streams()
    simulate._draw_bits(rng, tie, simulate._bit_law(0.5), (10, 64), 16)
    ref, _ = _streams()
    ref.bit_generator.random_raw(10 * 64 * 2 // 8)
    assert np.array_equal(_next_raw(rng), _next_raw(ref))


def test_bit_law_refuses_p_outside_the_unit_interval():
    for p in (-0.1, 1.0):
        with pytest.raises(ValueError, match="0 <= p < 1"):
            simulate._bit_law(p)


def test_fixed_codebook_must_match_blocklength():
    cfg = ExperimentConfig(source=BSS, n=7, rate=4 / 7, trials=10, seed=1, codebook_law="fixed", codebook=FIXED_CB)
    with pytest.raises(ValueError, match="blocklength"):
        mc_mean_distortion(cfg)


# ---------------------------------------------------------------------------
# enumeration oracles against a brute-force quantize loop
# ---------------------------------------------------------------------------

def quantize(x: np.ndarray, cb: Codebook) -> tuple[int, float]:
    """Nearest codeword of x; ties go to the smallest index.

    Distortion is Hamming/n for bit vectors and squared error/n for reals.
    """
    x = np.asarray(x)
    if x.shape != (cb.n,):
        raise ValueError(f"word shape {x.shape} does not match blocklength {cb.n}")
    if np.issubdtype(cb.codewords.dtype, np.floating) or np.issubdtype(x.dtype, np.floating):
        dist = ((cb.codewords - x[None, :].astype(float)) ** 2).sum(axis=1) / cb.n
    else:
        dist = (cb.codewords != x[None, :]).sum(axis=1) / cb.n
    j = int(np.argmin(dist))
    return j, float(dist[j])


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
    assert exact_distortion(BSS, cb) == pytest.approx(ed, rel=1e-12, abs=0)
    assert delta_residue(BSS, cb) == pytest.approx(dr, rel=1e-12, abs=0)
    assert duality_error_prob(BSS, cb) == pytest.approx(pe, rel=1e-12, abs=0)
    assert exact_distortion(BNS, cb) == pytest.approx(_brute_force(BNS, cb, rate)[0], rel=1e-12)


def test_nearest_distances_match_the_quantize_loop():
    cb = _codebook_with_duplicate(10, 32, 2)
    best_d = simulate._nearest_distances(cb)
    # the word equal to codeword 1, which codeword 16 duplicates
    dup = int(sum(int(b) << k for k, b in enumerate(cb.codewords[1])))
    assert best_d[dup] == 0
    for i in [*range(0, 1 << 10, 7), dup]:
        x = np.array([(i >> k) & 1 for k in range(10)], dtype=np.uint8)
        _, dist = quantize(x, cb)
        assert best_d[i] == round(dist * 10)


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
