"""CPU-speed sampling, to report times at a fixed reference speed.

The machines the benchmark runs on are shared: other tenants slow a vCPU
by up to 1.7x, in phases that can outlast a whole run, so the same program
reads 30-50% apart in two runs.  ``SpeedSampler`` measures that speed
while the timed code runs.  Every ``INTERVAL_S`` of wall time a SIGALRM
handler times ``CHUNKS`` runs of a fixed pure-Python chunk (scalar float
math, the same kind of work as rdflb's per-j and per-weight loops) and
keeps the fastest, which drops the odd interrupt or cold cache.  The
chunk is defined here and calls nothing of rdflb, so a change to the
program cannot move it.

``wall`` is the block's wall time without the handler's, and ``scaled()``
turns it into seconds at the reference speed, the speed at which one chunk
takes ``REF_CHUNK_S``:

    wall * mean over samples of (REF_CHUNK_S / sample)

Work done at speed v(t) for a wall time T equals the integral of v over
T, and the samples are spread evenly over wall time, so this is the time
the same work takes at the reference speed.  The handler costs about 2%
of the wall time, which ``wall`` leaves out.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05
CHUNKS = 6
# the usual fastest-of-six chunk time on the 2-vCPU VM the baseline was recorded on
REF_CHUNK_S = 1.4e-4


def _chunk() -> float:
    s = 0.0
    for i in range(1, 250):
        x = i * 0.37
        s += math.lgamma(x) - math.log(x) + math.exp(-x)
    return s


class SpeedSampler:
    """Context manager: samples the CPU speed every ``INTERVAL_S`` while it is active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        best = math.inf
        for _ in range(CHUNKS):
            t = time.perf_counter()
            _chunk()
            best = min(best, time.perf_counter() - t)
        self.samples.append(best)
        self.spent += time.perf_counter() - begin

    def __enter__(self) -> SpeedSampler:
        self._sample(None, None)  # one sample even for a block shorter than an interval
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall = time.perf_counter() - self._start - self.spent
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self) -> float:
        """The block's wall time, without the handler's, in seconds at the reference speed."""
        return self.wall * sum(REF_CHUNK_S / s for s in self.samples) / len(self.samples)
