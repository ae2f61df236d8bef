"""Reference-speed normalization of measured times.

The CPU speed a process gets on a shared host can drift by 30% or more
over tens of seconds, and every timing drifts with it.  While a timed
pass runs, a SIGALRM handler times a fixed pure-Python loop every
SAMPLE_INTERVAL_S seconds of wall time.  A time t measured while the
loop took r_1..r_k is reported as t * REF_NOMINAL_S * mean(1/r_i): the
time the same work takes when the loop runs at its nominal duration.
The handler's own time is kept out of the measured times.  A change in
the program moves the normalized time exactly as it moves the raw one.

This module imports nothing beyond `time` at load, so that a fresh
interpreter measuring import time can use it without loading modules
the program would otherwise load itself.
"""

import time

REF_ITERS = 20_000
# A round figure near the median duration of reference_loop() on the
# machine that took the baseline (Intel Xeon, 2 vCPUs, CPython 3.11.7),
# where it ranged from 1.1 to 1.5 ms with the host's load.
REF_NOMINAL_S = 1.3e-3
SAMPLE_INTERVAL_S = 0.1


def reference_loop(n=REF_ITERS):
    x = 0.5
    for _ in range(n):
        x = 3.7 * x * (1.0 - x)
    return x


def time_reference():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scale(samples):
    """Factor from measured seconds to reference-speed seconds."""
    return REF_NOMINAL_S * sum(1.0 / r for r in samples) / len(samples)


class SpeedSampler:
    """Samples the reference loop at entry, every `interval` seconds
    while the block runs, and at exit.

    `busy` is the total time spent sampling, for callers to take out of
    the times they measure inside the block.
    """

    def __init__(self, interval=SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.busy = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.busy += time.perf_counter() - t0

    def __enter__(self):
        import signal

        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self):
        return scale(self.samples)
