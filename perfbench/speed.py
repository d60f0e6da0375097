"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes (another tenant on the same core).  Wall and CPU time
drift together, so neither can be used as is.  While a run is timed, a
``SIGALRM`` timer interrupts it every ``every_s`` seconds to time a fixed
kernel that does not touch frax - a float series with ``lgamma``, one
scipy ``quad`` and a numpy draw, the three kinds of work frax does.  The
timer reaches inside long operations too (a verify run lasts ~20 s).  Each
operation's time, less the kernel time that fell inside it, is reported
scaled to a machine on which the kernel takes ``KERNEL_REF_S[kind]``:

    reported = (measured - kernel inside) * KERNEL_REF_S[kind] / median(
               kernel times during the operation, or the NEAREST ones)

Interpreted code and vectorised numpy slow down by different amounts when
the host is busy, so a workload names the kernel that tracks it best in
back-to-back runs of the same inputs.  eval-scatter uses the ``python``
kernel (series and quad only): the coefficient of variation over six runs
was 5.3% for calls/s and 6.9% for the tail with it, 6.4% and 7.9% with the
``mixed`` kernel, 9.9% and 11% unscaled.  The other workloads use the
``mixed`` kernel (verify 2.8% against 5.4%, eval-grid 2.2% against 2.7%).

On back-to-back runs of the same operations this cut the run-to-run
coefficient of variation of the total time from 16% to about 5%.  The raw
times and the mean factor are printed with every result.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np
from scipy.integrate import quad

KERNEL_REF_S = {"python": 1.2e-3, "mixed": 2.0e-3}  # on a 2-vCPU 2.1 GHz VM, Python 3.11
NEAREST = 9


def _integrand(x: float) -> float:
    return math.exp(-x * x) * math.cos(3.0 * x)


def kernel(kind: str) -> float:
    """A millisecond or two of fixed work independent of the program under test."""
    s = 0.0
    for j in range(1, 2000):
        s += math.exp(math.lgamma(0.5 * j) - j * math.log(j)) * (-1.0) ** j
    s += quad(_integrand, 0.0, 5.0)[0]
    if kind == "mixed":
        s += float(np.random.default_rng(1).standard_normal(1 << 15).sum())
    return s


class Speed:
    """Kernel timings (start, duration) collected through a run."""

    def __init__(self, kind: str, every_s: float = 0.1) -> None:
        self.kind = kind
        self.ref_s = KERNEL_REF_S[kind]
        self.every_s = every_s
        self.at: list[float] = []
        self.samples: list[float] = []
        self._previous = None

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            kernel(self.kind)
            self.at.append(t0)
            self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Speed":
        self.sample(NEAREST)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample(NEAREST)

    def factor(self) -> float:
        """Factor from every sample of the run."""
        return self.ref_s / statistics.median(self.samples)

    def inside(self, t0: float, t1: float) -> float:
        """Kernel time spent within [t0, t1]."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        return sum(self.samples[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """The time of an operation that ran over [t0, t1], kernel time
        removed, at reference speed."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.at, 0.5 * (t0 + t1))
            lo = max(0, min(mid - NEAREST // 2, len(self.at) - NEAREST))
            hi = lo + NEAREST
        ref = self.ref_s / statistics.median(self.samples[lo:hi])
        return (t1 - t0 - self.inside(t0, t1)) * ref
