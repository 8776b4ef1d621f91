"""Exact-enumeration and Monte-Carlo quantization experiments.

These are the validation oracles for the analytic bounds: nearest-codeword
distortion by brute force for small n, the residue identity that converts
distortion gaps into information units, and reproducible random-codebook
sampling (counter-based Philox streams keyed by (seed, chunk)).

The enumeration packs source word i as the integer i (bit k is
(i >> k) & 1) and each codeword the same way, so a Hamming distance is one
popcount of an XOR.

Stream contract of `mc_mean_distortion`: trials go in chunks of
min(_CHUNK, _MC_BUDGET // (Q n)) rows, and chunk c draws from its own
generator `_chunk_rng(seed, c)`. That generator first draws the chunk's
source words x, then its codebooks, each array in C order. The codebooks
are drawn and compared in slices of _SLICE rows; a C-order stream read in
consecutive slices is the same stream, so the results do not depend on the
slice size. The Gaussian law with a codeword bound rm redraws rejected
codewords after the whole chunk's first draw, so it takes the chunk as one
slice.

Binary words are packed: a source word or codeword is ceil(n/8) bytes, bit
k of byte b is coordinate 8b + k, and the bits at positions n and above
are 0. Each output byte is 8 Bernoulli(p) lanes, drawn by comparing every
lane's uniform U with the binary expansion of p one digit at a time: round
k reads one raw byte r of the Philox stream (bit i of r is digit k of lane
i's U) and either settles lanes with U < p (digit 1 of p) or lanes with
U > p (digit 0). The rounds stop where p's expansion ends, at most after
8, so p = 1/2 costs one raw byte per output byte. The rounds of one output
byte are consecutive raw bytes, output bytes go in C order, and each
source word, or each codebook, reads whole 64-bit raw words, so a slice
starts on a word boundary. A lane whose first 8 digits all tie with p's
(probability 2**-8, and only when p has digits past the 8th) is settled by
doubles from a second generator `_chunk_rng(seed, c + _TIE_KEY)`, one per
53 digits of frac(p 2**8), compared digit group by digit group; tied lanes
draw in C order of (output byte, bit). Every lane is therefore exactly
Bernoulli(p), and the results do not depend on the slice size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

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
_ENUM_CELLS = 1 << 18  # (source word, codeword) distances held at once by the enumeration
_SLICE = 128  # codebooks drawn and compared at once by the Monte Carlo
_MC_BUDGET = 2_000_000_000  # Q * trials * n element operations
_TIE_KEY = 2**33  # tie-stream key offset: above every chunk index and the 2**32 key of `rdflb validate`


class BudgetError(Exception):
    """Raised when an experiment exceeds the enumeration or MC budget."""


@dataclass(frozen=True)
class Codebook:
    """Q codewords of blocklength n: int bits for binary sources, floats
    for the Gaussian source."""

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
    codebook_law: Literal["optimal-marginal", "uniform", "fixed"] = "optimal-marginal"
    codebook: Codebook | None = None
    rm: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.codebook_size < 1:
            raise ValueError("codebook size must be >= 1")
        if self.codebook_law == "fixed" and self.codebook is None:
            raise ValueError("fixed law needs an explicit codebook")

    @property
    def codebook_size(self) -> int:
        return int(round(2.0 ** (self.n * self.rate)))


def _pack_bits(cb: Codebook) -> np.ndarray:
    """Codeword j as ceil(n/8) bytes; bit k of byte b is cw[j, 8b + k]."""
    cw = cb.codewords
    if not np.isin(cw, (0, 1)).all():
        raise ValueError("binary oracles need 0/1 codewords")
    return np.packbits(cw.astype(bool), axis=1, bitorder="little")


def _packed_codewords(cb: Codebook) -> np.ndarray:
    """Codeword j as the uint32 sum_k cw[j, k] << k, the packing of the source words."""
    if cb.n > 31:
        raise ValueError(f"packed enumeration holds at most 31 bits, got n={cb.n}")
    packed = _pack_bits(cb)
    return np.pad(packed, ((0, 0), (0, 4 - packed.shape[1]))).view("<u4")[:, 0]


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
    """Hamming distance from every word to its nearest codeword.

    Words go in blocks of about _ENUM_CELLS / Q, so memory is O(_ENUM_CELLS)
    whatever n is.
    """
    packed = _packed_codewords(cb)
    if cb.n > _ENUM_LIMIT:
        raise BudgetError(f"2**{cb.n} enumeration exceeds the n <= {_ENUM_LIMIT} budget")
    words = _words(cb.n)
    best_d = np.empty(words.size, dtype=np.int32)
    block = max(1, _ENUM_CELLS // cb.size)
    for s in range(0, words.size, block):
        best_d[s : s + block] = np.bitwise_count(words[s : s + block, None] ^ packed[None, :]).min(axis=1)
    return best_d


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
    """Bernoulli(p) as a comparison of a uniform U with p's binary expansion.

    rounds holds p's digits 1..8, stopping where the expansion ends; tail
    holds frac(p 2**8) as 53-digit groups (floats holding integers below
    2**53), empty when p has no digit past the 8th.
    """

    rounds: tuple[int, ...]
    tail: np.ndarray


def _bit_law(p: float) -> _BitLaw:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"need 0 <= p < 1, got {p}")
    num, den = float(p).as_integer_ratio()
    e = den.bit_length() - 1  # p = num / 2**e exactly
    rounds = tuple((num >> (e - k)) & 1 for k in range(1, min(e, 8) + 1))
    left = e - 8
    if left <= 0:
        return _BitLaw(rounds, np.empty(0))
    groups = -(-left // 53)
    t = (num & ((1 << left) - 1)) << (53 * groups - left)
    tail = [(t >> (53 * (groups - 1 - i))) & ((1 << 53) - 1) for i in range(groups)]
    return _BitLaw(rounds, np.array(tail, dtype=np.float64))


def _draw_bits(rng, tie_rng, law: _BitLaw, shape: tuple[int, ...], n: int) -> np.ndarray:
    """Packed Bernoulli words of length n, an array of shape (*shape, ceil(n/8)).

    Each index of shape[0] reads whole 64-bit raw words of rng; lanes tied
    after 8 rounds are settled from tie_rng (see the module docstring).
    """
    nb = (n + 7) // 8
    k = len(law.rounds)
    res = np.zeros((*shape, nb), dtype=np.uint8)
    if k == 0:
        return res
    per_row = math.prod(shape[1:]) * nb * k
    words = -(-per_row // 8)
    raw = rng.bit_generator.random_raw(shape[0] * words).view(np.uint8).reshape(shape[0], 8 * words)
    # rounds first, so that each round is one contiguous pass over the output bytes
    raw = np.ascontiguousarray(raw[:, :per_row].reshape(-1, k).T).reshape(k, *shape, nb)
    # round 0 starts with every lane undecided; und is a view of raw when p's digit 1 is 1
    und = raw[0]
    if law.rounds[0]:
        np.invert(und, out=res)
    else:
        und = ~und
    for i in range(1, k):
        r = raw[i]
        if law.rounds[i]:
            res |= und & ~r
            und &= r
        else:
            und &= ~r
    if n % 8:
        res[..., -1] &= (1 << n % 8) - 1
        und[..., -1] &= (1 << n % 8) - 1
    if law.tail.size:
        tied = np.flatnonzero(und != 0)
        lanes = np.unpackbits(und.ravel()[tied], bitorder="little")
        hit = lanes.astype(bool)
        u = tie_rng.random((np.count_nonzero(hit), law.tail.size)) * 2.0**53
        # the first digit group that differs from p's decides; if none does, U >= p
        below = np.zeros(u.shape[0], dtype=bool)
        for j in reversed(range(law.tail.size)):
            below = np.where(u[:, j] != law.tail[j], u[:, j] < law.tail[j], below)
        lanes[hit] = below
        res.ravel()[tied] |= np.packbits(lanes, bitorder="little")
    return res


def mc_mean_distortion(cfg: ExperimentConfig) -> tuple[float, float]:
    """Sample mean and standard error of the nearest-codeword distortion
    over independently drawn (source word, codebook) pairs."""
    q = cfg.codebook_size
    n = cfg.n
    if q * cfg.trials * n > _MC_BUDGET:
        raise BudgetError(f"Q*trials*n = {q * cfg.trials * n} exceeds the MC budget")
    gaussian = isinstance(cfg.source, GaussianSource)
    fixed = cfg.codebook_law == "fixed"
    if fixed and cfg.codebook.n != n:
        raise ValueError(f"fixed codebook has blocklength {cfg.codebook.n}, not n={n}")
    if gaussian:
        if cfg.codebook_law == "uniform":
            raise ValueError("uniform codebook law is undefined for the Gaussian source")
        sol = solve(cfg.source, cfg.rate)
        std = math.sqrt(sol.marginal_variance)
        if fixed:
            fixed_y = cfg.codebook.codewords
    else:
        bns = isinstance(cfg.source, BinaryNonSymmetricSource)
        x_law = _bit_law(cfg.source.p if bns else 0.5)
        if fixed:
            fixed_y = _pack_bits(cfg.codebook)
        elif cfg.codebook_law == "optimal-marginal" and bns and cfg.rate < 1:
            y_law = _bit_law(solve(cfg.source, cfg.rate).marginal_one_prob)
        else:
            y_law = _bit_law(0.5)
    chunk = max(1, min(_CHUNK, _MC_BUDGET // max(1, q * n)))
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
            x = _draw_bits(rng, tie_rng, x_law, (m,), n)
        d = np.empty(m)
        # rejection redraws follow the whole chunk's draws, so that path keeps whole chunks
        r = m if gaussian and cfg.rm is not None else _SLICE
        for s in range(0, m, r):
            xs = x[s : s + r, None, :]
            if fixed:
                y = fixed_y
            elif gaussian:
                y = _draw_gaussian_codebooks(rng, xs.shape[0], q, n, std, cfg.rm)
            else:
                y = _draw_bits(rng, tie_rng, y_law, (xs.shape[0], q), n)
            if gaussian:
                dist = ((xs - y) ** 2).sum(axis=2)
            else:
                ones = np.bitwise_count(xs ^ y)
                # a loop over the bytes beats a reduction along the short last axis
                dist = np.zeros(ones.shape[:2], dtype=np.min_scalar_type(n))
                for b in range(ones.shape[2]):
                    dist += ones[..., b]
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
