import math
import tracemalloc
from fractions import Fraction

import mpmath
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

MC_CASES = {
    "bss": (dict(source=BSS, n=8, rate=0.5),
            (0.1978021978021978, 0.0012717101058016412)),
    "bns": (dict(source=BNS, n=10, rate=0.3),
            (0.1813186813186813, 0.0014881713125365055)),
    "gauss": (dict(source=GaussianSource(1.0), n=8, rate=0.5),
              (0.6836575706789005, 0.005140075069834119)),
    "gauss_rm": (dict(source=GaussianSource(1.0), n=8, rate=0.5, rm=2.2),
                 (0.6712686054219246, 0.005180065894379859)),
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


def test_mc_result_does_not_depend_on_slice_size_at_n20(monkeypatch):
    # 20 lanes in a 32-bit word, Q = 64: the configuration of `rdflb validate bns`
    cfg = ExperimentConfig(source=BNS, n=20, rate=0.3, trials=TRIALS, seed=7)
    want = mc_mean_distortion(cfg)
    monkeypatch.setattr(simulate, "_SLICE", 7)
    assert mc_mean_distortion(cfg) == want


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


@pytest.mark.parametrize("source,p", [(BSS, 0.5), (BNS, 0.25)], ids=["bss", "bns"])
def test_multiword_mc_matches_random_coding_closed_form(source, p):
    # n = 70 spans two uint64 words
    cfg = ExperimentConfig(source=source, n=70, rate=0.1, trials=2000, seed=1)
    z = solve(source, cfg.rate).marginal_one_prob if source is BNS else 0.5
    mean, se = mc_mean_distortion(cfg)
    assert abs(mean - _random_coding_distortion(70, 128, p, z)) <= 4 * se


def test_codebook_size_is_the_floor_of_two_to_the_nr():
    def size(n, rate):
        return ExperimentConfig(source=BSS, n=n, rate=rate, trials=1, seed=0).codebook_size

    assert size(5, 0.5) == 5  # 2**2.5 = 5.66; rounding drew 6
    assert size(3, 0.5) == 2
    assert 100 * 0.58 < 58 and size(100, 0.58) == 2**58
    assert size(20, 0.3) == 64 and size(16, 0.5) == 256
    with pytest.raises(ValueError, match="codebook size"):
        ExperimentConfig(source=BSS, n=4, rate=-0.5, trials=1, seed=0)


def test_codebook_size_is_finite_past_the_double_range():
    # nR = 1200.6 overflows 2.0**nR; the size is the 53-digit 2**frac(nR) shifted left by 1200
    cfg = ExperimentConfig(source=BNS, n=2001, rate=0.6, trials=10, seed=0)
    q = cfg.codebook_size
    assert q.bit_length() == 1201
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(q) / mpmath.power(2, mpmath.mpf(2001 * 0.6)) - 1) <= 2.0**-52
    with pytest.raises(BudgetError, match="MC budget"):
        mc_mean_distortion(cfg)


def test_mc_refuses_a_run_over_the_budget():
    # Q * trials * n is 64 * 10**6 * 20 = 1.28e9 within the budget of 2e9, and 2.56e10 past it
    simulate._check_mc_budget(ExperimentConfig(source=BNS, n=20, rate=0.3, trials=10**6, seed=0))
    with pytest.raises(BudgetError, match="MC budget"):
        mc_mean_distortion(ExperimentConfig(source=BNS, n=20, rate=0.3, trials=2 * 10**7, seed=0))


def test_mc_refuses_a_huge_nr_without_forming_the_codebook_size():
    # at nR = 3e8, Q = 2**(nR) is an integer of 3e8 bits (about 38 MB); from nR >= 31 on Q alone
    # exceeds the budget, so construction and refusal read nR and never build Q
    tracemalloc.start()
    try:
        cfg = ExperimentConfig(source=BNS, n=10**9, rate=0.3, trials=1, seed=0)
        with pytest.raises(BudgetError, match=r"^Q\*trials\*n = 2\*\*300000029\.90 exceeds the MC budget"):
            simulate._check_mc_budget(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("source", [BSS, BNS], ids=["bss", "bns"])
def test_config_refuses_rm_for_a_binary_source(source):
    with pytest.raises(ValueError, match="rm bounds Gaussian codewords only"):
        ExperimentConfig(source=source, n=8, rate=0.5, trials=10, seed=1, rm=2.2)


@pytest.mark.parametrize("rate", [0.9, 1.5])
def test_mc_refuses_a_bns_rate_at_or_above_the_source_entropy(rate):
    # H(0.25) = 0.811: no Bernoulli(z) marginal reaches these rates, so no codeword law is drawn
    with pytest.raises(ValueError, match=r"outside \(0, source entropy\)"):
        mc_mean_distortion(ExperimentConfig(BNS, 4, rate, 100, 1))


def test_gaussian_rejection_sampler_refuses_a_tiny_rm():
    # almost no N(0, 1/2) codeword of length 8 has norm below 1e-3, so 200 redraws leave some rejected
    cfg = ExperimentConfig(GaussianSource(1.0), 8, 0.5, 10, 1, rm=1e-3)
    with pytest.raises(BudgetError, match="^rejection sampling acceptance below threshold for rm$"):
        mc_mean_distortion(cfg)


# ---------------------------------------------------------------------------
# Bernoulli machine words
# ---------------------------------------------------------------------------

TWO_TAIL_GROUPS = 2**-10 + 2**-62  # frac(256 p) = 1/4 + 2**-54 needs two 53-digit groups


def _streams(seed=3):
    return simulate._chunk_rng(seed, 0), simulate._chunk_rng(seed, simulate._TIE_KEY)


def _reference_bits(p, shape, n, seed=3):
    """The draw lane by lane, from exact fractions rather than `_bit_law`.

    A lane reads one raw byte and is 1 below floor(256 p), 0 above it; a tie
    reads one tie-stream double per 53 digits of frac(256 p) and is 1 when
    those digits, as a fraction, are below frac(256 p). At p = 1/2 a word
    reads ceil(n/8) raw bytes and lane k is the complement of its bit k.
    Every row reads whole raw words. Returns the words and the tied-lane count.
    """
    width, dtype = simulate._word_layout(n)
    half = p == 0.5
    cut = math.floor(256 * Fraction(p))
    frac = 256 * Fraction(p) - cut
    groups = -(-(frac.denominator.bit_length() - 1) // 53) if frac else 0
    per_word = (n + 7) // 8 if half else n
    per_row = math.prod(shape[1:])
    rng, tie = _streams(seed)
    values, ties = [], 0
    for _ in range(shape[0]):
        raw = rng.bit_generator.random_raw(-(-per_row * per_word // 8)).view(np.uint8).tolist()
        for w in range(per_row):
            value = 0
            for k in range(n):
                if half:
                    bit = 1 - ((raw[w * per_word + k // 8] >> (k % 8)) & 1)
                elif raw[w * n + k] != cut:
                    bit = int(raw[w * n + k] < cut)
                elif groups:
                    ties += 1
                    digits = 0
                    for u in tie.random(groups):
                        digits = (digits << 53) | int(u * 2.0**53)
                    bit = int(Fraction(digits, 2 ** (53 * groups)) < frac)
                else:
                    bit = 0
                value |= bit << k
            values.append(np.frombuffer(value.to_bytes(width, "little"), dtype=dtype))
    return np.array(values).reshape(*shape, -1), ties


@pytest.mark.parametrize("p", [0.5, 0.25, 1 / 3, 0.1763319320101495, 1e-5, TWO_TAIL_GROUPS])
def test_packed_bits_match_lane_by_lane_reference(p):
    law = simulate._bit_law(p)
    # 7 words per row, so no row of 13, 20 or 70 raw bytes per word fills whole raw words
    cases = [((40, 7), n) for n in (13, 20, 70)]
    # n that fill their machine words, packed without padding: rows of 8 words fill whole
    # raw words at every p, and rows of 7 words of 1, 2 or 4 bytes at p = 1/2 do not
    cases += [(shape, n) for n in (8, 16, 32, 64, 128) for shape in ((40, 8), (40, 7))]
    for shape, n in cases:
        rng, tie = _streams()
        got = simulate._draw_bits(rng, tie, law, shape, n)
        want, ties = _reference_bits(p, shape, n)
        assert got.dtype == want.dtype and np.array_equal(got, want), (shape, n)
        assert (ties > 0) == (law.tail.size > 0)


def test_tail_groups_count_the_digits_of_p_past_the_eighth():
    ps = (0.5, 0.25, 3 / 256, 1 / 3, 1e-5, TWO_TAIL_GROUPS)
    assert [simulate._bit_law(p).tail.size for p in ps] == [0, 0, 0, 1, 2, 2]


@pytest.mark.parametrize("p", [0.5, 1 / 3, 0.25, "marginal"])
def test_packed_bit_frequency(p):
    if p == "marginal":
        p = solve(BNS, 0.3).marginal_one_prob
    n, rows, q = 13, 2000, 64
    rng, tie = _streams()
    words = simulate._draw_bits(rng, tie, simulate._bit_law(p), (rows, q), n)
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little")
    assert bits.size >= 10**6
    assert abs(bits.mean() - p) <= 5 * math.sqrt(p * (1 - p) / bits.size)


WORD_LAYOUTS = [(5, np.uint8, 1), (8, np.uint8, 1), (11, np.uint16, 1), (16, np.uint16, 1), (20, np.uint32, 1),
                (32, np.uint32, 1), (40, np.uint64, 1), (64, np.uint64, 1), (70, np.uint64, 2), (130, np.uint64, 3)]


@pytest.mark.parametrize("p", [0.5, 0.25, 1 / 3])
def test_packed_padding_bits_are_zero(p):
    for n, dtype, words in WORD_LAYOUTS:
        rng, tie = _streams()
        got = simulate._draw_bits(rng, tie, simulate._bit_law(p), (300, 16), n)
        assert got.dtype == dtype and got.shape == (300, 16, words)
        bits = np.unpackbits(got.view(np.uint8), axis=-1, bitorder="little")
        assert not bits[..., n:].any()
        assert bits[..., n - 1].any()


def test_half_keeps_the_byte_stream_at_n20():
    # three raw bytes in a four-byte word, pinned to the byte-packed draw
    rng, tie = _streams()
    got = simulate._draw_bits(rng, tie, simulate._bit_law(0.5), (4, 3), 20)
    assert got.dtype == np.uint32 and got.shape == (4, 3, 1)
    assert got[..., 0].tolist() == [[9012, 310563, 135378], [32216, 794751, 368126],
                                     [933250, 833696, 802285], [1001924, 676373, 391447]]


@pytest.mark.parametrize("p", [0.5, 0.25, 1 / 3, 0.1763319320101495, 1e-5, 0.0, TWO_TAIL_GROUPS])
def test_bit_law_is_the_exact_expansion_of_p(p):
    law = simulate._bit_law(p)
    assert 0 <= law.cut < 256
    value = Fraction(law.cut, 256)
    for j, group in enumerate(law.tail):
        assert group == int(group) and 0 <= group < 2**53
        value += Fraction(int(group), 2 ** (8 + 53 * (j + 1)))
    assert value == Fraction(p)
    assert law.tail.size == 0 or law.tail[-1] != 0


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


def _assert_reads(law, shape, n, raw_words):
    rng, tie = _streams()
    simulate._draw_bits(rng, tie, law, shape, n)
    ref, _ = _streams()
    ref.bit_generator.random_raw(raw_words)
    assert np.array_equal(_next_raw(rng), _next_raw(ref))


def test_half_reads_one_raw_byte_per_output_byte():
    _assert_reads(simulate._bit_law(0.5), (10, 64), 16, 10 * 64 * 2 // 8)


def test_other_p_reads_one_raw_byte_per_lane_in_whole_raw_words_per_row():
    # 3 words of 13 lanes are 39 raw bytes, so each row reads 5 raw words
    _assert_reads(simulate._bit_law(0.25), (10, 3), 13, 10 * 5)
    _assert_reads(simulate._bit_law(1 / 3), (10, 3), 13, 10 * 5)


def test_zero_p_reads_nothing():
    rng, tie = _streams()
    assert not simulate._draw_bits(rng, tie, simulate._bit_law(0.0), (10, 3), 70).any()
    _assert_reads(simulate._bit_law(0.0), (10, 3), 70, 0)


def test_bit_law_refuses_p_outside_the_unit_interval():
    for p in (-0.1, 1.0):
        with pytest.raises(ValueError, match="0 <= p < 1"):
            simulate._bit_law(p)


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


@pytest.mark.parametrize("n,q", [(1, 1), (12, 1), (9, 512), (16, 256)])
def test_nearest_distances_match_the_popcount_minimum(n, q):
    cw = (np.random.default_rng(n).random((q, n)) < 0.5).astype(np.uint8)
    packed = (cw.astype(np.uint32) << np.arange(n, dtype=np.uint32)).sum(axis=1, dtype=np.uint32)
    want = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)[:, None] ^ packed[None, :]).min(axis=1)
    got = simulate._nearest_distances(Codebook(n, cw))
    assert got.dtype == np.int8 and np.array_equal(got, want)


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
