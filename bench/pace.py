"""How fast the host runs while requests are timed.

The host's speed drifts by more than the changes the benchmark must resolve:
a fixed 30 ms kernel takes 0.026 to 0.037 s within one minute, on either
vCPU, with CPU time equal to wall time.  While requests are timed, a
SIGALRM handler times a fixed snippet of interpreter and small-array work
every PERIOD seconds.  A request's pace is the median snippet time from
LOCAL seconds before it starts to LOCAL seconds after it ends, over
REFERENCE; its duration divided by its pace reads as at the reference speed.
The snippets' own time is left out of every request duration.
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.05  # s between samples
LOCAL = 1.0  # s of samples taken on each side of a request
REFERENCE = 3.0e-4  # s, the snippet's median time on a quiet host
_ARRAY = np.arange(50.0)


def snippet() -> float:
    total = 0
    for i in range(3000):
        total += i * i
    a = _ARRAY
    for _ in range(30):
        a = np.sqrt(a + 1.0)
    return total + float(a[0])


class Pace:
    """Samples the snippet between `start()` and `stop()`."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0  # total snippet time
        # installed for good: a signal already pending at stop() then takes
        # one more sample instead of meeting the default action
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        snippet()
        dt = time.perf_counter() - t0
        self.times.append(t0)
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def factors(self, starts, durations) -> list[float]:
        """Pace of each request: above 1 where the host ran slow."""
        times = np.asarray(self.times)
        samples = np.asarray(self.samples)
        out = []
        for t0, dt in zip(starts, durations):
            lo = np.searchsorted(times, t0 - LOCAL)
            hi = np.searchsorted(times, t0 + dt + LOCAL)
            local = samples[lo:hi] if hi > lo else samples
            out.append(float(np.median(local)) / REFERENCE)
        return out
