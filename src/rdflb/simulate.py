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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .ratedistortion import (
    BinaryNonSymmetricSource,
    BinarySymmetricSource,
    GaussianSource,
    SourceModel,
    solve,
)

__all__ = [
    "BudgetError",
    "Codebook",
    "ExperimentConfig",
    "quantize",
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


def _packed_codewords(cb: Codebook) -> np.ndarray:
    """Codeword j as the uint32 sum_k cw[j, k] << k, the packing of the source words."""
    cw = cb.codewords
    if cb.n > 31:
        raise ValueError(f"packed enumeration holds at most 31 bits, got n={cb.n}")
    if not np.isin(cw, (0, 1)).all():
        raise ValueError("enumeration oracles need 0/1 codewords")
    return (cw.astype(np.uint32) << np.arange(cb.n, dtype=np.uint32)).sum(axis=1, dtype=np.uint32)


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


def _assignments(cb: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """(assigned index, Hamming distance to assigned codeword) of every word.

    Words go in blocks of about _ENUM_CELLS / Q, so memory is O(_ENUM_CELLS)
    whatever n is; argmin keeps the first minimum, so ties go to the
    smallest index as in `quantize`.
    """
    packed = _packed_codewords(cb)
    if cb.n > _ENUM_LIMIT:
        raise BudgetError(f"2**{cb.n} enumeration exceeds the n <= {_ENUM_LIMIT} budget")
    words = _words(cb.n)
    best_j = np.empty(words.size, dtype=np.int32)
    best_d = np.empty(words.size, dtype=np.int32)
    block = max(1, _ENUM_CELLS // cb.size)
    for s in range(0, words.size, block):
        d = np.bitwise_count(words[s : s + block, None] ^ packed[None, :])
        j = d.argmin(axis=1)
        best_j[s : s + block] = j
        best_d[s : s + block] = np.take_along_axis(d, j[:, None], axis=1)[:, 0]
    return best_j, best_d


def exact_distortion(source: SourceModel, cb: Codebook) -> float:
    """Expected nearest-codeword distortion by full enumeration (binary)."""
    _, best_d = _assignments(cb)
    p = np.exp(_source_log_pmf(source, cb.n))
    return float((p * best_d).sum() / cb.n)


def delta_residue(source: BinarySymmetricSource, cb: Codebook, rate: float | None = None) -> float:
    """The information residue of the quantization partition, in nats.

    n R ln2 - sum_x p(x) ln(q(x|y_j(x)) / p(x)) over the exact nearest-
    codeword regions; rate defaults to log2(Q)/n so that Q = 2**(nR).
    """
    if not isinstance(source, BinarySymmetricSource):
        raise ValueError("the residue oracle is defined for the symmetric source")
    n = cb.n
    if rate is None:
        rate = math.log2(cb.size) / n
    from .special import inverse_binary_entropy

    q0 = inverse_binary_entropy(1.0 - rate)
    _, best_d = _assignments(cb)
    log_ratio = n * _LN2 + best_d * math.log(q0) + (n - best_d) * math.log1p(-q0)
    p = np.exp(_source_log_pmf(source, n))
    return float(n * rate * _LN2 - (p * log_ratio).sum())


def duality_error_prob(source: BinarySymmetricSource, cb: Codebook, rate: float | None = None) -> float:
    """Error probability of the dual channel decoded by the same regions."""
    if not isinstance(source, BinarySymmetricSource):
        raise ValueError("the duality oracle is defined for the symmetric source")
    n = cb.n
    if rate is None:
        rate = math.log2(cb.size) / n
    from .special import inverse_binary_entropy

    q0 = inverse_binary_entropy(1.0 - rate)
    _, best_d = _assignments(cb)
    q_xy = np.exp(best_d * math.log(q0) + (n - best_d) * math.log1p(-q0))
    return float(1.0 - q_xy.sum() / cb.size)


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


def mc_mean_distortion(cfg: ExperimentConfig) -> tuple[float, float]:
    """Sample mean and standard error of the nearest-codeword distortion
    over independently drawn (source word, codebook) pairs."""
    q = cfg.codebook_size
    n = cfg.n
    if q * cfg.trials * n > _MC_BUDGET:
        raise BudgetError(f"Q*trials*n = {q * cfg.trials * n} exceeds the MC budget")
    gaussian = isinstance(cfg.source, GaussianSource)
    if gaussian:
        if cfg.codebook_law == "uniform":
            raise ValueError("uniform codebook law is undefined for the Gaussian source")
        sol = solve(cfg.source, cfg.rate)
        std = math.sqrt(sol.marginal_variance)
    elif cfg.codebook_law == "optimal-marginal" and isinstance(cfg.source, BinaryNonSymmetricSource):
        one_prob = solve(cfg.source, cfg.rate).marginal_one_prob if cfg.rate < 1 else 0.5
    else:
        one_prob = 0.5
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
            x = rng.random((m, n)) < (cfg.source.p if isinstance(cfg.source, BinaryNonSymmetricSource) else 0.5)
        d = np.empty(m)
        # rejection redraws follow the whole chunk's draws, so that path keeps whole chunks
        r = m if gaussian and cfg.rm is not None else _SLICE
        for s in range(0, m, r):
            xs = x[s : s + r, None, :]
            if cfg.codebook_law == "fixed":
                y = cfg.codebook.codewords
            elif gaussian:
                y = _draw_gaussian_codebooks(rng, xs.shape[0], q, n, std, cfg.rm)
            else:
                y = rng.random((xs.shape[0], q, n)) < one_prob
            if gaussian:
                dist = ((xs - y) ** 2).sum(axis=2)
            else:
                dist = (xs != y).sum(axis=2, dtype=np.int32)
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
