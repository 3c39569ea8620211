"""Host-speed reference: timings scaled to a fixed reference speed.

A shared host runs the same code at different speeds from minute to
minute, as other tenants' load comes and goes, and all code slows down
together.  The benchmark therefore times a fixed probe kernel, which is
part of the benchmark and not of the package, between operations, and
scales every operation's wall time by ``REF_S / probe time`` measured
around it: the time the operation would have taken on a host where the
probe takes ``REF_S``.  A change to the package moves the operation's
time and not the probe's, so it shows in the scaled figures in full;
a change of host speed moves both and cancels.

The probe mixes what the package spends its time on: mostly numpy
calls on a few points each (3x3 complex solves, exponentials), then
elementwise transcendentals and streaming arithmetic on a few thousand
points, batched solves and a little interpreted Python.  On the
host the benchmark was defined on, over 5 s windows in which the
host's speed varied 1.6x, the workloads' operation times moved with
the probe's (slopes 0.90-1.07) and their scaled times varied 3-4 %
(standard deviation of the log) against 12-15 % unscaled.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median probe time (s) on the host the benchmark was defined on:
# 2-vCPU x86_64 VM, Python 3.11, numpy 2.4.
REF_S = 1.0e-3
PROBE_REPS = 2        # a probe point is the mean of this many kernels
PROBE_EVERY_S = 0.2   # at most this long between probe points
WINDOW_S = 2.0        # probe points this far around an operation scale it

_rng = np.random.default_rng(14014687)
_M = (_rng.standard_normal((128, 3, 3)) + 1j * _rng.standard_normal((128, 3, 3))
      + 4.0 * np.eye(3))
_B = _rng.standard_normal((128, 3, 1)) + 0j
_X = _rng.standard_normal(6144)
_Y = _rng.standard_normal(1 << 14) + 0j


def _kernel() -> float:
    """About 1 ms: small-array calls (half), large elementwise work."""
    s = 0.0
    for i in range(600):
        s += (i * 0.5) % 7.0
    for i in range(32):
        s += float(np.linalg.solve(_M[i:i + 5], _B[i:i + 5])[0, 0, 0].real)
        s += float(np.exp(1j * _X[i:i + 5]).sum().real)
    s += float(np.linalg.solve(_M, _B)[0, 0, 0].real)
    s += float(np.abs(np.exp(1j * _X) / (1.0 + 0.5j * _X)).sum())
    s += float((_Y * 1.5 + _Y * _Y).real.sum())
    return s


def probe() -> float:
    """Seconds one probe kernel takes now (mean of PROBE_REPS).

    An untimed kernel first brings the probe's own data and code back
    into the caches, so the operation before does not change the time.
    """
    _kernel()
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


class SpeedLog:
    """Probe points taken between operations, and the scaling they give."""

    def __init__(self):
        self.times = []
        self.probes = []
        for _ in range(20):  # warm-up: lazy imports, caches
            _kernel()
        self.mark(force=True)

    def mark(self, force=False):
        """Take a probe point if PROBE_EVERY_S has passed since the last."""
        now = time.perf_counter()
        if force or now - self.times[-1] >= PROBE_EVERY_S:
            p = probe()
            self.times.append(now)
            self.probes.append(p)

    def scale(self, t_start, t_end) -> float:
        """REF_S over the mean probe within WINDOW_S of [t_start, t_end].

        The probe points just before and just after are always used.
        """
        lo = bisect.bisect_left(self.times, t_start - WINDOW_S)
        hi = bisect.bisect_right(self.times, t_end + WINDOW_S)
        lo = min(lo, max(bisect.bisect_right(self.times, t_start) - 1, 0))
        hi = max(hi, min(bisect.bisect_left(self.times, t_end) + 1, len(self.times)))
        return REF_S / statistics.fmean(self.probes[lo:hi])

    def mean_probe(self) -> float:
        return statistics.fmean(self.probes)
