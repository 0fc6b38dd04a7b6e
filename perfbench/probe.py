"""Machine-speed probe: converts measured wall time to reference-speed time.

On a shared machine the speed available to one process drifts by tens of
percent within minutes, so raw wall times of identical runs disagree by
more than any useful regression bound.  The probe measures that speed
while the program runs: a real-time timer (SIGALRM) fires every
``PERIOD_S`` and the handler times ``kernel``, a fixed piece of pure-Python
work that does not touch the program.  The program's speed tracks the
kernel's, so an interval of wall time ``dt`` in which the kernel took ``k``
seconds on average (and the handler itself ran for ``h``) is worth

    (dt - h) * REFERENCE_KERNEL_S / k

seconds at reference speed, the speed at which one kernel run takes
``REFERENCE_KERNEL_S``.  That constant only fixes the scale, chosen so that
reference seconds are close to wall seconds on a lightly loaded 2-vCPU
x86-64 VM; parent and change are always converted with the same one.

Python runs a signal handler in the main thread between two bytecodes of
the program.  The kernel shares none of the program's objects and runs
with the garbage collector off; it does share the CPU's caches with the
program.  ``results/README.md`` checks that a known slowdown of the
program reads the same in reference seconds as in wall seconds.
"""
from __future__ import annotations

import gc
import signal
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

import numpy as np
from mpmath.libmp import fzero, from_int, mpf_add, mpf_div, mpf_mul

PERIOD_S = 0.02
REFERENCE_KERNEL_S = 0.0006
# Intervals with fewer kernel samples inside also use this many samples on
# each side.
_MIN_SAMPLES = 3

# The kernel's own inputs.  Its arithmetic passes the precision explicitly,
# so it does not depend on the program's mpmath context.
_PREC = 213
_XS = [mpf_div(from_int(3 * i + 1), from_int(7), _PREC) for i in range(24)]
_TENSOR = (np.arange(24 ** 3).reshape(24, 24, 24) * 7919 % 11 == 0).astype(np.int64)


def kernel():
    """Fixed work of the kind the program does: a sparse multiply-add over
    a structure tensor in multiprecision floats, and rational arithmetic."""
    acc = fzero
    for i in range(2):
        xi = _XS[i]
        for j in range(24):
            for k in np.nonzero(_TENSOR[i, j])[0]:
                acc = mpf_add(acc, mpf_mul(mpf_mul(xi, _XS[j], _PREC),
                                           _XS[int(k)], _PREC), _PREC)
    frac = Fraction(0)
    for i in range(1, 30):
        frac += Fraction(i, i + 3)
    return acc, frac


class Probe:
    """Kernel timings sampled on a timer while the probe is running."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        # With the collector off, a collection of the program's heap that
        # the kernel's allocations would set off is not charged to it.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)
        if enabled:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def handler_seconds(self, t0: float, t1: float) -> float:
        """Time the handler took inside the wall interval [t0, t1]."""
        i = bisect_left(self.starts, t0)
        j = bisect_left(self.starts, t1)
        return sum(self.durations[i:j])

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the wall interval [t0, t1]."""
        if not self.starts:
            raise RuntimeError("the speed probe took no samples")
        i = bisect_left(self.starts, t0)
        j = bisect_left(self.starts, t1)
        handler = self.handler_seconds(t0, t1)
        if j - i < _MIN_SAMPLES:
            i, j = max(i - _MIN_SAMPLES, 0), j + _MIN_SAMPLES
        ref = self.durations[i:j]
        return (t1 - t0 - handler) * REFERENCE_KERNEL_S / (sum(ref) / len(ref))
