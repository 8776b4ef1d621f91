"""Finite-blocklength bounds on optimal quantization distortion.

Upper and lower bounds on the distortion of size-2**(nR) vector
quantizers for i.i.d. binary symmetric, binary non-symmetric, and
Gaussian sources, plus the enumeration / Monte-Carlo oracles that
validate them.  See the bss, bns, gauss, and simulate modules for the
per-family bounds and experiments.

The simulate docstring states how the bounds and the experiments read the
codebook size 2**(nR).
"""

from . import bns, bss, gauss, geometry, logdomain, quadrature, ratedistortion, simulate, special
from .ratedistortion import BinaryNonSymmetricSource, BinarySymmetricSource, GaussianSource, solve

__version__ = "0.1.0"
