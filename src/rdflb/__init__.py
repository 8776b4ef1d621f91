"""Finite-blocklength bounds on optimal quantization distortion.

Upper and lower bounds on the distortion of size-2**(nR) vector
quantizers for i.i.d. binary symmetric, binary non-symmetric, and
Gaussian sources, plus the enumeration / Monte-Carlo oracles that
validate them.  See the bss, bns, gauss, and simulate modules for the
per-family bounds and experiments.

Codebook size: every bound takes Q = 2**(nR) as a real number.  A lower
bound holds for every codebook of at most that many words; the upper
bounds use the same real Q.  The experiments in simulate draw
floor(2**(nR)) words.
"""

from . import bns, bss, gauss, geometry, logdomain, quadrature, ratedistortion, simulate, special
from .logdomain import log_binomial
from .ratedistortion import (
    BinaryNonSymmetricSource,
    BinarySymmetricSource,
    GaussianSource,
    RdSolution,
    SourceModel,
    solve,
)
from .simulate import (
    Codebook,
    ExperimentConfig,
    delta_residue,
    duality_error_prob,
    exact_distortion,
    mc_mean_distortion,
)
from .special import (
    binary_entropy,
    inverse_binary_entropy,
    log_unit_ball_volume,
    log_unit_sphere_area,
)

__version__ = "0.1.0"
