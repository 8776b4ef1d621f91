import math
from dataclasses import dataclass

import numpy as np
import pytest

from rdflb.ratedistortion import BinaryNonSymmetricSource, BinarySymmetricSource, GaussianSource, solve

_LN2 = math.log(2.0)
HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# discrete Blahut-Arimoto solver (KKT verification oracle)
# ---------------------------------------------------------------------------

@dataclass
class DiscreteChannel:
    """Finite-alphabet test channel: input pmf, distortion matrix, q(y|x)."""

    px: np.ndarray
    dmat: np.ndarray
    qyx: np.ndarray

    def __post_init__(self):
        self.px = np.asarray(self.px, dtype=float)
        self.dmat = np.asarray(self.dmat, dtype=float)
        self.qyx = np.asarray(self.qyx, dtype=float)
        if self.dmat.shape != (self.px.size, self.qyx.shape[1]):
            raise ValueError("shape mismatch between px, dmat, qyx")
        if np.any(self.dmat < 0) or np.any(self.qyx < 0):
            raise ValueError("distortions and probabilities must be >= 0")
        if np.max(np.abs(self.qyx.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("rows of q(y|x) must sum to 1")

    @property
    def qy(self) -> np.ndarray:
        return self.px @ self.qyx

    def mutual_information_nats(self) -> float:
        qy = self.qy
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.log(self.qyx / qy[None, :])
        terms = self.px[:, None] * self.qyx * np.where(self.qyx > 0, ratio, 0.0)
        return float(terms.sum())

    def distortion(self) -> float:
        return float((self.px[:, None] * self.qyx * self.dmat).sum())


@dataclass
class BaResult:
    channel: DiscreteChannel
    rate: float          # bits
    distortion: float
    iterations: int
    converged: bool
    residual: float


def blahut_arimoto(
    px: np.ndarray,
    dmat: np.ndarray,
    slope: float,
    max_iter: int = 200_000,
    tol: float = 1e-12,
) -> BaResult:
    """Alternating minimization of D + (1/slope') I along the R-D curve.

    `slope` is the exponent parameter in nats: the fixed point satisfies
    q(y|x) proportional to q(y) exp(-slope * d(x,y)), i.e. slope equals
    1/lambda_hat_nats of the operating point it converges to.
    """
    if slope <= 0:
        raise ValueError(f"slope must be > 0, got {slope}")
    px = np.asarray(px, dtype=float)
    dmat = np.asarray(dmat, dtype=float)
    if px.size > 64 or dmat.shape[1] > 64:
        raise ValueError("alphabets larger than 64 symbols are out of scope")
    ny = dmat.shape[1]
    qy = np.full(ny, 1.0 / ny)
    expd = np.exp(-slope * dmat)
    last_d = math.inf
    qyx = None
    it = 0
    for it in range(1, max_iter + 1):
        w = qy[None, :] * expd
        qyx = w / w.sum(axis=1, keepdims=True)
        qy = px @ qyx
        d = float((px[:, None] * qyx * dmat).sum())
        if abs(d - last_d) < tol:
            last_d = d
            break
        last_d = d
    ch = DiscreteChannel(px, dmat, qyx)
    rate_bits = ch.mutual_information_nats() / _LN2
    residual = abs(ch.distortion() - last_d)
    return BaResult(ch, rate_bits, ch.distortion(), it, it < max_iter, residual)


@dataclass(frozen=True)
class KktReport:
    """Worst-case optimality violations, all in nats."""

    stationarity: float
    slackness: float
    rate_slack: float

    @property
    def max_violation(self) -> float:
        return max(self.stationarity, self.slackness, self.rate_slack)


def kkt_residual(ch: DiscreteChannel, lam_nats: float, rate_bits: float | None = None) -> KktReport:
    """Optimality-condition residuals for a candidate channel at slope lam_nats.

    Stationarity: on the support of q(y|x) the quantity
    d(x,y)/lam + ln(q(y|x)/q(y)) must not depend on y; the residual is the
    largest spread over y per input x.  Slackness weights the same defect
    by q(y|x).  rate_slack is |I(q) - R| when a target rate is supplied.
    """
    qy = ch.qy
    active = qy > 1e-300
    with np.errstate(divide="ignore"):
        score = ch.dmat[:, active] / lam_nats + np.log(ch.qyx[:, active] / qy[None, active])
    support = ch.qyx[:, active] > 1e-300
    hi = np.where(support, score, -np.inf).max(axis=1)
    lo = np.where(support, score, np.inf).min(axis=1)
    stationarity = float(np.max(hi - lo))
    center = (ch.qyx[:, active] * np.where(support, score, 0.0)).sum(axis=1)
    slackness = float(np.max(np.abs(ch.qyx[:, active] * (np.where(support, score, 0.0) - center[:, None]))))
    rate_slack = 0.0
    if rate_bits is not None:
        rate_slack = abs(ch.mutual_information_nats() - rate_bits * _LN2)
    return KktReport(stationarity, slackness, rate_slack)


def test_bss_operating_point():
    sol = solve(BinarySymmetricSource(), 0.5)
    # paper rounds this to 0.109
    assert sol.dstar == pytest.approx(0.110027864, abs=1e-8)
    from rdflb.special import binary_entropy

    assert binary_entropy(sol.dstar) == pytest.approx(1.0 - 0.5, abs=1e-10)
    # slope identity restated: lambda_nats * ln((1-q0)/q0) = 1
    assert sol.lambda_hat_nats * math.log((1 - sol.dstar) / sol.dstar) == pytest.approx(1.0, abs=1e-10)


def test_bns_operating_point():
    sol = solve(BinaryNonSymmetricSource(0.4), 0.5)
    # paper rounds this to 0.101
    assert sol.dstar == pytest.approx(0.1006, abs=2e-4)
    from rdflb.special import binary_entropy

    assert binary_entropy(0.4) - binary_entropy(sol.dstar) == pytest.approx(0.5, abs=1e-10)
    z = sol.marginal_one_prob
    assert z == pytest.approx((0.4 - sol.dstar) / (1 - 2 * sol.dstar), rel=1e-12)
    assert 0.0 < z < 1.0


def test_binary_sources_share_one_formula():
    # at p = 1/2 the reconstruction marginal is exactly 1/2, which the bns
    # bounds' one-class shortcut at p = 1/2 relies on
    for rate in np.linspace(0.001, 0.999, 500):
        sym = solve(BinarySymmetricSource(), float(rate))
        half = solve(BinaryNonSymmetricSource(0.5), float(rate))
        assert sym.marginal_one_prob == half.marginal_one_prob == 0.5
        assert (sym.dstar, sym.lambda_hat_nats) == (half.dstar, half.lambda_hat_nats)


def test_gaussian_operating_point():
    sol = solve(GaussianSource(1.0), 0.5)
    assert sol.dstar == pytest.approx(0.5, abs=1e-12)
    assert sol.lambda_hat_nats == pytest.approx(2 * sol.dstar, abs=1e-12)
    assert sol.marginal_variance == pytest.approx(0.5, abs=1e-12)


def test_rate_domain_errors():
    with pytest.raises(ValueError):
        solve(BinarySymmetricSource(), 0.0)
    with pytest.raises(ValueError):
        solve(BinarySymmetricSource(), 1.0)
    with pytest.raises(ValueError):
        solve(BinaryNonSymmetricSource(0.4), 0.98)  # above H(0.4)


@pytest.mark.parametrize("source", [BinarySymmetricSource(), BinaryNonSymmetricSource(0.4), GaussianSource(1.0)])
@pytest.mark.parametrize("rate", [0.2, 0.5, 0.8])
def test_lambda_matches_finite_difference(source, rate):
    h = 1e-5
    dp = solve(source, rate + h).dstar
    dm = solve(source, rate - h).dstar
    fd = -(dp - dm) / (2 * h) / _LN2  # -dD/dR in nats
    lam = solve(source, rate).lambda_hat_nats
    assert fd == pytest.approx(lam, rel=1e-6)


def _ba_at(source, rate):
    sol = solve(source, rate)
    if isinstance(source, BinarySymmetricSource):
        px = np.array([0.5, 0.5])
    else:
        px = np.array([1 - source.p, source.p])
    return sol, blahut_arimoto(px, HAMMING, slope=1.0 / sol.lambda_hat_nats, tol=1e-12)


@pytest.mark.parametrize("source", [BinarySymmetricSource(), BinaryNonSymmetricSource(0.4)])
def test_blahut_arimoto_matches_closed_form(source):
    for rate in np.arange(0.1, 0.91, 0.1):
        sol, res = _ba_at(source, float(rate))
        assert res.converged
        assert res.rate == pytest.approx(rate, abs=1e-4)
        assert res.distortion == pytest.approx(sol.dstar, abs=1e-4)


def test_blahut_arimoto_kkt_certificate():
    for source in (BinarySymmetricSource(), BinaryNonSymmetricSource(0.4)):
        sol, res = _ba_at(source, 0.5)
        rep = kkt_residual(res.channel, sol.lambda_hat_nats, 0.5)
        assert rep.max_violation <= 1e-8


def test_kkt_closed_form_bss():
    sol = solve(BinarySymmetricSource(), 0.5)
    q0 = sol.dstar
    ch = DiscreteChannel(np.array([0.5, 0.5]), HAMMING, np.array([[1 - q0, q0], [q0, 1 - q0]]))
    rep = kkt_residual(ch, sol.lambda_hat_nats, 0.5)
    assert rep.stationarity <= 1e-10
    assert rep.slackness <= 1e-10
    assert rep.rate_slack <= 1e-10


def test_kkt_detects_non_optimum():
    sol = solve(BinarySymmetricSource(), 0.5)
    ch = DiscreteChannel(np.array([0.5, 0.5]), HAMMING, np.array([[0.5, 0.5], [0.5, 0.5]]))
    rep = kkt_residual(ch, sol.lambda_hat_nats)
    assert rep.stationarity > 1e-3


def test_blahut_arimoto_lossless_limit():
    px = np.array([0.6, 0.4])
    res = blahut_arimoto(px, HAMMING, slope=200.0)
    h = -(0.6 * math.log2(0.6) + 0.4 * math.log2(0.4))
    assert res.rate == pytest.approx(h, abs=1e-6)
    assert res.distortion <= 1e-12


def test_discrete_channel_validation():
    with pytest.raises(ValueError):
        DiscreteChannel(np.array([0.5, 0.5]), HAMMING, np.array([[0.9, 0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        blahut_arimoto(np.full(65, 1 / 65), np.zeros((65, 2)), slope=1.0)
    with pytest.raises(ValueError):
        blahut_arimoto(np.array([0.5, 0.5]), HAMMING, slope=-1.0)
