"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of a core drifts by up to a quarter over
tens of seconds, because neighbours load the caches and memory. That
drift is larger than any bound the benchmark could set on a raw time.
So while a pass runs, a fixed reference kernel is timed every PERIOD_S
seconds from a signal handler. The kernel is pure-Python Fraction, dict
and integer work, like voacalc's. A pass's time is then rescaled to
reference seconds:

    time * REFERENCE_KERNEL_S / (mean kernel time during the pass)

This is the time the pass would take on a machine where the kernel takes
REFERENCE_KERNEL_S. Time spent in the handler is left out of the pass.
In trials on a 2-CPU container, the rescaled time of a fixed piece of
work spread 0.026 between quartiles, against 0.22 for the raw time.
Set-up times are calibrated differently, in run.py.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.002
PERIOD_S = 0.2


def kernel() -> None:
    """A fixed ~2 ms piece of pure-Python work; the result is unused."""
    d: dict = {}
    x = Fraction(1, 3)
    for i in range(300):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        d[(i % 17, i % 5)] = d.get((i % 17, i % 5), 0) + i
    s = 0
    for i in range(3000):
        s += (i * 7) % 13


def time_kernel() -> float:
    """One timed run of the kernel, with the garbage collector held off so
    that it cannot bill the caller's heap to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[float]) -> float:
    """Multiplier from raw seconds to reference seconds."""
    return REFERENCE_KERNEL_S / statistics.fmean(samples)


class SpeedProbe:
    """Samples the kernel every PERIOD_S seconds while active.

    ``samples`` holds the kernel times; ``spent`` is the time taken by
    the handler, to be subtracted from the timed region."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(time_kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()
