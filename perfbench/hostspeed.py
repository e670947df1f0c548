"""Host speed: a fixed calibration loop, timed while the benchmark runs.

The benchmark shares a 2-core host whose speed swings by up to a factor
of two for minutes at a time, with no steal time to show for it.  Raw
wall times of one workload then spread by 12-47 % (interquartile range
over median) across ten runs, whatever the run length.  So the
benchmark times a fixed loop that calls no pspectral code, in the same
process, and reports each time t as

    t * REF_S / c

where c is the loop's mean time while t was taken: the time t would
have taken on the reference host, whose loop time is REF_S.  A change to
pspectral moves t and leaves c alone; a slower host moves both.

The loop is a copy of the shape of the variational descent: a bisection
for the p-mean and a subgradient step on 65 nodes, small numpy calls
driven from Python, which is also the shape of most of verify's work.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_S = 0.0075  # median loop time on the reference host (perfbench/README.md)
PERIOD_S = 0.5  # one loop every half second costs about 1.5 % of the run

_rng = np.random.default_rng(0)
_X = _rng.standard_normal(65)
_W = np.full(65, 1.0 / 65)
_CW = np.full(64, 1.0 / 64)


def _spow(x, e):
    return np.sign(x) * np.abs(x) ** e


def calibration_loop(p=1.5):
    v = _X.copy()
    lam = 1.0
    for _ in range(40):
        lo, hi = v.min(), v.max()
        for _ in range(30):
            c = 0.5 * (lo + hi)
            if float(np.dot(_W, _spow(v - c, p - 1.0))) > 0.0:
                lo = c
            else:
                hi = c
        v = v - c
        q = _CW * _spow(np.diff(v), p - 1.0) * p
        g = (np.concatenate(([0.0], q)) - np.concatenate((q, [0.0]))
             - lam * p * _W * _spow(v, p - 1.0))
        v = v - 1e-3 * g / float(np.linalg.norm(g))
        lam = (float(np.dot(_CW, np.abs(np.diff(v)) ** p))
               / float(np.dot(_W, np.abs(v) ** p)))


def loop_time(n=10):
    """Mean time of n back-to-back runs of the calibration loop."""
    t0 = time.perf_counter()
    for _ in range(n):
        calibration_loop()
    return (time.perf_counter() - t0) / n


class Sampler:
    """Times the calibration loop every PERIOD_S seconds from SIGALRM.

    The handler runs in the main thread between bytecodes, so the loop
    interleaves with the cases and its time sees the host as they do.
    """

    def __init__(self):
        self.samples = []  # (start, duration)

    def _tick(self, signum, frame):
        t = time.perf_counter()
        calibration_loop()
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, start, seconds):
        """seconds, taken from start on, at the reference host's speed."""
        inside = [d for t, d in self.samples if start <= t <= start + seconds]
        if not inside:  # shorter than a period: the nearest loop
            mid = start + seconds / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return seconds * REF_S / (sum(inside) / len(inside))
