"""Host-speed sampling used to normalize the benchmark's timings.

On a shared virtual machine the same single-threaded work swings between
two speeds about 35% apart, switching every few seconds (another tenant
on the sibling hardware thread; steal time stayed under 1%).  That swing
alone spread the median pass of a fully deterministic pipeline run by 13%
between runs.

While a workload is measured, `Sampler` times a fixed ~0.3 ms kernel from
a timer signal every INTERVAL_S.  The handler runs on the measured thread
between bytecodes, so each sample shows the speed the workload ran at
just then.  `adjust(start, end)` turns an operation's interval into

    raw  = end - start - time spent in the handler inside the interval
    norm = raw * REF_S * mean(1 / kernel time) over samples near it

`norm` is the time at a speed where the kernel takes REF_S.  Samples are
uniform in time, so the mean of 1 / kernel time weights each speed by the
time the operation spent at it.  The kernel does the kind of work gmmgen
does (small numpy calls from Python), so both slow down by about the same
factor.  It does not touch gmmgen, so a change to gmmgen cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.05
KERNEL_STEPS = 15
REF_S = 3.0e-4  # normalized times are "seconds at a speed where the kernel takes 0.3 ms"
WINDOW_S = 0.1  # samples this close to a short operation count for it

_MATRIX = np.random.default_rng(0).standard_normal((7, 7))
_EYE = np.eye(7)


def kernel_seconds() -> float:
    """One timing of a fixed kernel of small linear algebra."""
    start = time.perf_counter()
    for _ in range(KERNEL_STEPS):
        m = _MATRIX @ _MATRIX.T + _EYE
        np.linalg.cholesky(m)
        float(m.sum())
    return time.perf_counter() - start


class Sampler:
    """Samples host speed from SIGALRM while active (main thread only)."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []     # handler entry times, increasing
        self.handler_s: list[float] = []  # time each handler call took
        self.kernel_s: list[float] = []   # kernel time measured in it
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel = kernel_seconds()
        self.starts.append(start)
        self.kernel_s.append(kernel)
        self.handler_s.append(time.perf_counter() - start)

    def __enter__(self):
        # samples on entry and exit cover intervals shorter than one period
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def adjust(self, start: float, end: float) -> tuple:
        """(raw seconds, normalized seconds) of the interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        raw = end - start - sum(self.handler_s[lo:hi])
        near = self.kernel_s[bisect.bisect_left(self.starts, start - WINDOW_S):
                             bisect.bisect_right(self.starts, end + WINDOW_S)]
        if not near:
            raise RuntimeError("no speed samples near an operation; is the sampler running?")
        return raw, normalize(raw, near)


def normalize(seconds: float, kernels) -> float:
    """seconds at a speed where the kernel takes REF_S, given kernel times
    sampled uniformly over the interval."""
    return seconds * REF_S * sum(1.0 / k for k in kernels) / len(kernels)
