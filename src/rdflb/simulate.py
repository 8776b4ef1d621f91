"""Exact-enumeration and Monte-Carlo quantization experiments.

These are the validation oracles for the analytic bounds: nearest-codeword
distortion by brute force for small n, the residue identity that converts
distortion gaps into information units, and reproducible random-codebook
sampling (counter-based Philox streams keyed by (seed, chunk)).

Codebook size: the analytic bounds take Q = 2**(nR) as a real number, and a
lower bound at that Q holds for every codebook of at most 2**(nR) words. The
experiments draw `ExperimentConfig.codebook_size` = floor(2**(nR)) codewords;
an nR within 1e-9 (relative) of an integer counts as that integer, so that
100 * 0.58 = 57.99999999999999 still gives 2**58 words.

Binary words are machine words: a source word or codeword of length n is one
uint8, uint16 or uint32 for n <= 8, 16 or 32, and ceil(n/64) uint64 words
beyond that, held along a last axis of length 1 unless n > 64. Bit k is
coordinate k (bit k % 64 of word k // 64), and the bits at positions n and
above are 0, so a Hamming distance is one popcount of an XOR, summed over the
words only when n > 64. The enumeration packs source word i as the integer i
the same way and gets every nearest-codeword distance from a distance
transform on the hypercube: d = 0 on the codewords, then one pass
d = min(d, d[x ^ e_k] + 1) per coordinate k, O(n 2**n) whatever Q is.

Stream contract of `mc_mean_distortion`: trials go in chunks of
min(_CHUNK, _MC_BUDGET // (Q n)) rows, and chunk c draws from its own
generator `_chunk_rng(seed, c)`. That generator first draws the chunk's
source words x, then its codebooks, each array in C order. The codebooks
are drawn and compared in slices of _SLICE rows; a C-order stream read in
consecutive slices is the same stream, so the results do not depend on the
slice size. The Gaussian law with a codeword bound rm redraws rejected
codewords after the whole chunk's first draw, so it takes the chunk as one
slice.

A binary draw reads the raw 64-bit Philox words as little-endian bytes, and
each row (a source word, or one trial's codebook) reads whole raw words, so
a slice starts on a word boundary. A Bernoulli(p) lane, p not in {0, 1/2},
reads one raw byte r, the first 8 binary digits of the lane's uniform U, most
significant digit first; lanes go in C order of (row, codeword, coordinate),
n bytes per word. With c = floor(256 p) the lane is 1 if r < c and 0 if
r > c. A lane with r = c (probability 2**-8) is a tie, settled by doubles
from a second generator `_chunk_rng(seed, c + _TIE_KEY)`, one per 53 digits
of frac(256 p), compared with those digits group by group, so that the lane
is 1 exactly when U < p; tied lanes draw in C order. If 256 p is an integer,
a tie is 0. At p = 1/2 a word reads ceil(n/8) raw bytes, zero-padded into
its machine word, and lane k is the complement of bit k % 8 of byte k // 8;
p = 0 reads nothing. Every lane is therefore exactly Bernoulli(p), and the
results do not depend on the slice size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ratedistortion import (
    BinaryNonSymmetricSource,
    BinarySymmetricSource,
    GaussianSource,
    SourceModel,
    solve,
)
from .special import inverse_binary_entropy

__all__ = [
    "BudgetError",
    "Codebook",
    "ExperimentConfig",
    "exact_distortion",
    "delta_residue",
    "duality_error_prob",
    "mc_mean_distortion",
]

_LN2 = math.log(2.0)
_CHUNK = 4096
_ENUM_LIMIT = 24
# Codebooks drawn and compared at once by the Monte Carlo. Time a larger slice
# in fresh interpreters, not in one process: at n = 20, Q = 64 and 100 000
# trials on a 2-vCPU VM, 512 rows took about 57 000 minor page faults and
# 0.10-0.14 s of system time per run, against about 100 faults and no system
# time at 128 rows, because glibc hands freed blocks that large back to the OS
# and the next slice faults them in again.
_SLICE = 128
_MC_BUDGET = 2_000_000_000  # Q * trials * n element operations
_TIE_KEY = 2**33  # tie-stream key offset: above every chunk index and the 2**32 key of `rdflb validate`


class BudgetError(Exception):
    """Raised when an experiment exceeds the enumeration or MC budget."""


@dataclass(frozen=True)
class Codebook:
    """Q binary codewords of blocklength n, as 0/1 ints: the explicit
    codebook that the enumeration oracles and `rdflb validate`'s identity
    check read (the Monte Carlo draws its own)."""

    n: int
    codewords: np.ndarray

    def __post_init__(self):
        cw = np.asarray(self.codewords)
        object.__setattr__(self, "codewords", cw)
        if cw.ndim != 2 or cw.shape[0] < 1 or cw.shape[1] != self.n:
            raise ValueError(f"codewords must be (Q, {self.n}), got {cw.shape}")

    @property
    def size(self) -> int:
        return self.codewords.shape[0]


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceModel
    n: int
    rate: float
    trials: int
    seed: int
    rm: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self._size_exponent()[0] < 0:
            raise ValueError("codebook size must be >= 1")
        if self.rm is not None and not isinstance(self.source, GaussianSource):
            raise ValueError("rm bounds Gaussian codewords only")

    def _size_exponent(self) -> tuple[int, float]:
        """(k, f) with codebook_size = floor(2**k * 2**f) and 0 <= f < 1, read off nR alone.

        nR within 1e-9 (relative) of an integer counts as that integer, with f = 0.
        """
        e = self.n * self.rate
        k = round(e)
        if k >= 0 and abs(e - k) <= 1e-9 * max(1, k):
            return k, 0.0
        k = math.floor(e)
        return k, e - k

    @property
    def codebook_size(self) -> int:
        """floor(2**(nR)): the 53 digits of the double 2**f shifted as an integer by k, so that no nR overflows."""
        k, f = self._size_exponent()
        return (int(2.0**f * 2**52) << k) >> 52


def _word_layout(n: int) -> tuple[int, np.dtype]:
    """(bytes per binary word, dtype of its machine words) at blocklength n."""
    width = 1 if n <= 8 else 2 if n <= 16 else 4 if n <= 32 else 8 * -(-n // 64)
    return width, np.dtype(f"<u{min(width, 8)}")


def _packed_codewords(cb: Codebook) -> np.ndarray:
    """Codeword j as the integer sum_k cw[j, k] << k, the packing of the source words."""
    if cb.n > 31:
        raise ValueError(f"packed enumeration holds at most 31 bits, got n={cb.n}")
    if not np.isin(cb.codewords, (0, 1)).all():
        raise ValueError("binary oracles need 0/1 codewords")
    width, dt = _word_layout(cb.n)
    packed = np.packbits(cb.codewords.astype(bool), axis=1, bitorder="little")
    return np.pad(packed, ((0, 0), (0, width - packed.shape[1]))).view(dt)[:, 0]


def _words(n: int) -> np.ndarray:
    """Every source word of length n; word i has bit k equal to (i >> k) & 1."""
    return np.arange(1 << n, dtype=np.uint32)


def _source_log_pmf(source: SourceModel, n: int) -> np.ndarray:
    if isinstance(source, BinarySymmetricSource):
        return np.full(1 << n, -n * _LN2)
    if isinstance(source, BinaryNonSymmetricSource):
        w = np.bitwise_count(_words(n)).astype(np.int64)
        return w * math.log(source.p) + (n - w) * math.log1p(-source.p)
    raise ValueError("enumeration oracles are for binary sources")


def _nearest_distances(cb: Codebook) -> np.ndarray:
    """Hamming distance from every word to its nearest codeword, as int8.

    A distance transform on the hypercube: 0 on the codewords and n
    elsewhere, then pass k lowers d[x] to d[x ^ e_k] + 1. After pass k,
    d[x] is the distance to the nearest codeword that differs from x in
    coordinates 0..k only (n if there is none), so after the last pass it
    is the nearest distance.
    """
    packed = _packed_codewords(cb)
    if cb.n > _ENUM_LIMIT:
        raise BudgetError(f"2**{cb.n} enumeration exceeds the n <= {_ENUM_LIMIT} budget")
    d = np.full(1 << cb.n, cb.n, dtype=np.int8)
    d[packed] = 0
    for k in range(cb.n):
        pairs = d.reshape(-1, 2, 1 << k)  # pairs[:, 0] and pairs[:, 1] differ in bit k only
        lo, hi = pairs[:, 0], pairs[:, 1]
        np.minimum(lo, hi + 1, out=lo)
        np.minimum(hi, lo + 1, out=hi)  # lo already holds min(lo, hi + 1), and hi + 2 > hi
    return d


def exact_distortion(source: SourceModel, cb: Codebook) -> float:
    """Expected nearest-codeword distortion by full enumeration (binary)."""
    best_d = _nearest_distances(cb)
    p = np.exp(_source_log_pmf(source, cb.n))
    return float((p * best_d).sum() / cb.n)


def _region_sums(source: BinarySymmetricSource, cb: Codebook, rate: float | None) -> tuple[float, float, float]:
    """(exact distortion, delta residue, duality error) of cb from one enumeration."""
    if not isinstance(source, BinarySymmetricSource):
        raise ValueError("the residue and duality oracles are defined for the symmetric source")
    n = cb.n
    if rate is None:
        rate = math.log2(cb.size) / n
    q0 = inverse_binary_entropy(1.0 - rate)
    best_d = _nearest_distances(cb)
    p = np.exp(_source_log_pmf(source, n))
    match, miss = best_d * math.log(q0), (n - best_d) * math.log1p(-q0)
    distortion = float((p * best_d).sum() / n)
    residue = float(n * rate * _LN2 - (p * (n * _LN2 + match + miss)).sum())
    error = float(1.0 - np.exp(match + miss).sum() / cb.size)
    return distortion, residue, error


def delta_residue(source: BinarySymmetricSource, cb: Codebook, rate: float | None = None) -> float:
    """The information residue of the quantization partition, in nats.

    n R ln2 - sum_x p(x) ln(q(x|y_j(x)) / p(x)) over the exact nearest-
    codeword regions; rate defaults to log2(Q)/n so that Q = 2**(nR).
    """
    return _region_sums(source, cb, rate)[1]


def duality_error_prob(source: BinarySymmetricSource, cb: Codebook, rate: float | None = None) -> float:
    """Error probability of the dual channel decoded by the same regions."""
    return _region_sums(source, cb, rate)[2]


# ---------------------------------------------------------------------------
# Monte-Carlo mean distortion over random codebooks
# ---------------------------------------------------------------------------

def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_gaussian_codebooks(rng, m, q, n, std, rm):
    y = rng.normal(0.0, std, size=(m, q, n))
    if rm is not None:
        for _ in range(200):
            bad = (y**2).sum(axis=2) > rm * rm
            n_bad = int(bad.sum())
            if n_bad == 0:
                break
            y[bad] = rng.normal(0.0, std, size=(n_bad, n))
        else:
            raise BudgetError("rejection sampling acceptance below threshold for rm")
    y[:, 0, :] = 0.0
    return y


@dataclass(frozen=True)
class _BitLaw:
    """Bernoulli(p) as U < p for a uniform U.

    cut is floor(256 p), which U's first 8 digits are compared with; tail
    holds frac(256 p) as 53-digit groups (floats holding integers below
    2**53), empty when 256 p is an integer.
    """

    cut: int
    tail: np.ndarray


def _bit_law(p: float) -> _BitLaw:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"need 0 <= p < 1, got {p}")
    num, den = float(p).as_integer_ratio()
    left = den.bit_length() - 9  # p = num / 2**(left + 8) exactly
    if left <= 0:
        return _BitLaw(num << -left, np.empty(0))
    groups = -(-left // 53)
    t = (num & ((1 << left) - 1)) << (53 * groups - left)
    tail = [(t >> (53 * (groups - 1 - i))) & ((1 << 53) - 1) for i in range(groups)]
    return _BitLaw(num >> left, np.array(tail, dtype=np.float64))


def _raw_bytes(rng, shape: tuple[int, ...], per_word: int) -> np.ndarray:
    """per_word raw bytes per word, shape (*shape, per_word); each index of
    shape[0] reads whole 64-bit raw words."""
    per_row = math.prod(shape[1:]) * per_word
    words = -(-per_row // 8)
    raw = rng.bit_generator.random_raw(shape[0] * words).astype("<u8", copy=False).view(np.uint8)
    raw = raw.reshape(shape[0], 8 * words)
    return raw[:, :per_row].reshape(*shape, per_word)


def _pad_lanes(rows: int, n: int) -> np.ndarray:
    """rows zero-padded words of 8 * width bool lanes, the buffer `_draw_bits` packs from."""
    return np.zeros((rows, 8 * _word_layout(n)[0]), dtype=bool)


def _flat_true(mask: np.ndarray) -> np.ndarray:
    """C-order flat indices of the True entries of a contiguous bool array.

    A sparse mask, such as the lanes tied on their raw byte (one in 256),
    is scanned 8 entries per uint64 word, and only the nonzero words are
    split into entries; the indices come out ascending, which is the order
    in which the tied lanes draw from the tie stream.
    """
    flat = mask.reshape(-1)
    head = flat.size - flat.size % 8
    words = flat[:head].view(np.uint64)
    hit = np.nonzero(words != 0)[0]
    lanes = np.nonzero(words[hit].view(bool))[0]
    found = hit[lanes >> 3] * 8 + (lanes & 7)
    if head == flat.size:
        return found
    return np.concatenate([found, head + np.nonzero(flat[head:])[0]])


def _draw_bits(rng, tie_rng, law: _BitLaw, shape: tuple[int, ...], n: int,
               pad: np.ndarray | None = None) -> np.ndarray:
    """Bernoulli words of length n, machine words of shape (*shape, words).

    The draw keeps the stream contract of the module docstring, and every
    word equals the lane-by-lane draw. For p not in {0, 1/2} each stage is
    one pass: the raw bytes are compared with law.cut into contiguous
    (*shape, n) lanes; the tied lanes, found at ascending flat indices (C
    order), are settled from tie_rng and written at those indices; unless n
    fills its machine words (n = 8, 16, 32 or a multiple of 64), each word's
    n lanes are copied at once into the zero-padded rows of `pad`; and the
    lanes are packed little-endian. `pad` holds at least prod(shape) rows of
    8 * width bools, False from lane n on; those lanes are never written, so
    one buffer serves every draw of a run. It is allocated when None.
    """
    width, dt = _word_layout(n)
    if law.tail.size == 0 and law.cut in (0, 128):
        res = np.zeros((*shape, width), dtype=np.uint8)
        if law.cut:  # p = 1/2: the complement of the raw bits
            nb = (n + 7) // 8
            np.invert(_raw_bytes(rng, shape, nb), out=res[..., :nb])
            if n % 8:
                res[..., nb - 1] &= (1 << n % 8) - 1
        return res.view(dt)
    raw = _raw_bytes(rng, shape, n)
    lanes = np.less(raw, law.cut)
    if law.tail.size:
        tied = _flat_true(raw == law.cut)
        u = tie_rng.random((tied.size, law.tail.size)) * 2.0**53
        # the first digit group that differs from p's decides, and U >= p where all agree:
        # the last group is one compare, and each earlier group overrides it where it differs
        below = u[:, -1] < law.tail[-1]
        for j in reversed(range(law.tail.size - 1)):
            below = np.where(u[:, j] != law.tail[j], u[:, j] < law.tail[j], below)
        lanes.reshape(-1)[tied] = below
    if n < 8 * width:
        rows = lanes.size // n
        pad = _pad_lanes(rows, n) if pad is None else pad[:rows]
        # one n-byte void item per word: a copy of short bool rows pays per row
        pad[:, :n].view(f"V{n}")[...] = lanes.reshape(rows, n).view(f"V{n}")
        lanes = pad
    return np.packbits(lanes.reshape(-1), bitorder="little").view(dt).reshape(*shape, -1)


def _check_mc_budget(cfg: ExperimentConfig) -> None:
    """Raise BudgetError if cfg's Monte Carlo takes more than _MC_BUDGET element operations, Q * trials * n."""
    k, f = cfg._size_exponent()
    if k < 31:
        pairs = cfg.codebook_size * cfg.trials * cfg.n
        if pairs <= _MC_BUDGET:
            return
        log2_pairs = math.log2(pairs)
    else:  # Q >= 2**31 > _MC_BUDGET: refuse from nR alone, without forming Q's nR-bit integer
        log2_pairs = k + f + math.log2(cfg.trials * cfg.n)
    raise BudgetError(f"Q*trials*n = 2**{log2_pairs:.2f} exceeds the MC budget of {_MC_BUDGET}")


def mc_mean_distortion(cfg: ExperimentConfig) -> tuple[float, float]:
    """Sample mean and standard error of the nearest-codeword distortion over
    independently drawn (source word, codebook) pairs; codewords are i.i.d. from
    the reconstruction marginal that `solve` gives at cfg.rate (Bernoulli(1/2) for the bss)."""
    _check_mc_budget(cfg)
    q = cfg.codebook_size
    n = cfg.n
    gaussian = isinstance(cfg.source, GaussianSource)
    if gaussian:
        std = math.sqrt(solve(cfg.source, cfg.rate).marginal_variance)
    elif isinstance(cfg.source, BinaryNonSymmetricSource):
        x_law = _bit_law(cfg.source.p)
        y_law = _bit_law(solve(cfg.source, cfg.rate).marginal_one_prob)
    else:
        x_law = y_law = _bit_law(0.5)
    chunk = max(1, min(_CHUNK, _MC_BUDGET // max(1, q * n)))
    if not gaussian:  # one buffer for every binary draw: a chunk's source words, then a slice's codebooks
        pad = _pad_lanes(max(chunk, min(chunk, _SLICE) * q), n)
    total = 0.0
    total_sq = 0.0
    done = 0
    c = 0
    while done < cfg.trials:
        m = min(chunk, cfg.trials - done)
        rng = _chunk_rng(cfg.seed, c)
        if gaussian:
            x = rng.normal(0.0, math.sqrt(cfg.source.sigma2), size=(m, n))
        else:
            tie_rng = _chunk_rng(cfg.seed, c + _TIE_KEY)
            x = _draw_bits(rng, tie_rng, x_law, (m,), n, pad)
        d = np.empty(m)
        # rejection redraws follow the whole chunk's draws, so that path keeps whole chunks
        r = m if gaussian and cfg.rm is not None else _SLICE
        for s in range(0, m, r):
            xs = x[s : s + r, None, :]
            if gaussian:
                y = _draw_gaussian_codebooks(rng, xs.shape[0], q, n, std, cfg.rm)
                dist = ((xs - y) ** 2).sum(axis=2)
            else:
                ones = np.bitwise_count(xs ^ _draw_bits(rng, tie_rng, y_law, (xs.shape[0], q), n, pad))
                dist = ones[..., 0] if ones.shape[2] == 1 else ones.sum(axis=2)
            d[s : s + r] = dist.min(axis=1) / n
        total += float(d.sum())
        total_sq += float((d**2).sum())
        done += m
        c += 1
    mean = total / cfg.trials
    if cfg.trials > 1:
        var = max(0.0, (total_sq - cfg.trials * mean * mean) / (cfg.trials - 1))
    else:
        var = 0.0
    return mean, math.sqrt(var / cfg.trials)
