"""How fast the host runs right now, from a fixed reference kernel.

The benchmark runs on a few virtual CPUs of a shared host.  Other tenants'
load changes how fast the same code runs by up to about 1.9 times, on the
main thread's CPU time as well as on wall time (steal time stays near zero):
the host flips between faster and slower states within a tenth of a second,
and the share of time spent in each drifts over minutes.  A run of 20 to 60
seconds cannot average that drift out, so the benchmark measures it: between
questions it times a fixed kernel that does not call the program, and scales
each measured time by ``REFERENCE_S / kernel time`` around that moment.  Times so scaled read as
seconds on a host that runs the kernel in ``REFERENCE_S``; a change to the
program moves them in full, a change in the host's load does not.

The kernel mimics the program's hot path: a term-by-term evaluation of a
polynomial held as a dict of exponent tuples, at numpy points, and small
numpy array operations.  It starts no threads and wakes no BLAS worker.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time defining the reference host: a probe's time in the fast phases
# of a 2-vCPU host (Python 3.11, numpy 2.4), rounded.
REFERENCE_S = 0.65e-3
PROBE_EVERY_S = 0.1  # at most one probe per this much wall time
WINDOW_S = 1.0  # a moment's speed: the mean over probes this close to it
REPEATS = 3  # a probe is the best of this many kernel runs

_TERMS = {(i, j): 1.0 / (1 + i + 2 * j) for i in range(7) for j in range(7 - i)}
_POINTS = np.linspace(-1.0, 1.0, 24).reshape(12, 2)
_MATRIX = np.linspace(-1.0, 1.0, 9).reshape(3, 3)


def kernel() -> float:
    """Term-by-term polynomial evaluation at numpy points, then small numpy
    array operations (too small for BLAS to start its threads)."""
    total = 0.0
    for x in _POINTS:
        for alpha, c in _TERMS.items():
            v = c
            for xi, ai in zip(x, alpha):
                if ai:
                    v *= xi**ai
            total += v
    for _ in range(60):
        total += float((_MATRIX @ _MATRIX).sum() + np.exp(_MATRIX).sum())
    return total


def probe() -> float:
    """Seconds of the kernel now: the best of ``REPEATS`` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Probes taken through a run, and the scale they give at any moment."""

    def __init__(self):
        self.stamps: list = []
        self.seconds: list = []

    def sample(self):
        self.seconds.append(probe())
        self.stamps.append(time.perf_counter())

    def maybe_sample(self):
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= PROBE_EVERY_S:
            self.sample()

    def scale(self, moments) -> np.ndarray:
        """REFERENCE_S over the kernel time at each moment: the mean of the
        probes within ``WINDOW_S`` of it, or, where fewer than two are that
        close, the interpolation between the two that bracket it."""
        stamps, seconds = np.array(self.stamps), np.array(self.seconds)
        moments = np.asarray(moments, dtype=float)
        sums = np.concatenate([[0.0], np.cumsum(seconds)])
        lo = np.searchsorted(stamps, moments - WINDOW_S)
        hi = np.searchsorted(stamps, moments + WINDOW_S, side="right")
        near = hi - lo
        at = np.interp(moments, stamps, seconds)
        many = near >= 2
        at[many] = (sums[hi] - sums[lo])[many] / near[many]
        return REFERENCE_S / at
