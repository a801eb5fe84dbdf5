"""Host-speed calibration for the end-to-end times.

On a shared host the CPU's speed drifts by 20-30 % over minutes, and each
virtual CPU drifts on its own.  Raw times of whole 24 s runs then spread
by 12-25 % from run to run, which runs this short do not average away.
So while a timed region runs, a fixed kernel interrupts it from a SIGALRM
handler every INTERVAL_S seconds, on the thread being measured, and times
itself.
The kernel's mean time gives the host's speed during the region, and
`scaled` turns the region's time into seconds at the reference speed,
at which the kernel takes REF_S.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from numpy.fft import ifft2

INTERVAL_S = 0.05
REF_S = 0.003  # the kernel's typical time on the reference machine


class HostSpeed:
    def __init__(self):
        self._field = np.random.default_rng(0).standard_normal((32, 32)) + 0j
        self.samples: list = []
        self.overhead = 0.0  # time the samples took
        self.warmup = 0.0  # time of the untimed first call of the kernel
        self._busy = False

    def _kernel(self, signum=None, frame=None) -> None:
        if signum is not None and self._busy:
            return  # a tick that arrives while the kernel runs is dropped
        self._busy = True
        t0 = time.perf_counter()
        a = self._field
        for _ in range(60):
            a = ifft2(a) * 1.0001
        x = 0
        for i in range(12_000):
            x += i * i % 7
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.overhead += dt
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        t0 = time.perf_counter()
        self._kernel()
        self.warmup = time.perf_counter() - t0
        self.samples, self.overhead = [], 0.0
        signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, elapsed: float) -> float:
        """Seconds at the reference speed for `elapsed` seconds of the
        region, timed after the warm-up."""
        return scale(elapsed, self.overhead, self.samples)


def scale(elapsed: float, overhead: float, samples: list) -> float:
    """Remove the kernel's time from `elapsed`, then rescale to the
    reference speed by the kernel's mean time."""
    if not samples:
        return elapsed - overhead
    return (elapsed - overhead) * REF_S / statistics.mean(samples)
