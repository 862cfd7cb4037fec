"""Machine-speed calibration: a fixed kernel timed all through the run.

The shared hosts this benchmark runs on change speed by tens of percent over
seconds to minutes, so raw times of the same work differ that much between
runs.  While a run measures, an interval timer interrupts it twenty times a
second to time a fixed kernel of the same kind of work as the program
(exact Gauss-Jordan elimination over Q and over F_5, on plain lists).  The
kernels run inside the operations as well as between them, so they sample
the machine at the moments the operations ran; their time is taken out of
the operations' times.  Each operation's time is then scaled by
``REFERENCE_S`` over the mean kernel time around it: a time in seconds at
the reference speed, the speed at which one kernel takes ``REFERENCE_S``.
The kernel uses only the standard library and this directory's
``exact.py``, so no change to ``commvar`` can move it.
"""
from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

import exact

# one kernel on the 2-core virtual machine (Python 3.11.7) the benchmark was
# written on, at about that machine's typical speed
REFERENCE_S = 0.004
PERIOD_S = 0.05     # one kernel every PERIOD_S of the run
WINDOW_S = 1.0      # kernels this close to an operation's start or end set its speed

_Q = [[Fraction((7 * i * i + 5 * j + i * j) % 13 - 6, 1 + (i + 2 * j) % 5) for j in range(10)]
      for i in range(9)]
_F5 = [[(i * i * j + 3 * j + 2 * i + 1) % 5 for j in range(10)] for i in range(10)]


def kernel() -> int:
    """Eliminations of a 9 x 10 matrix over Q and a 10 x 10 one over F_5."""
    return exact.rref_rank(_Q, None) + exact.rref_rank(_F5, 5)


class Calibrator:
    """Kernel times by the time they were taken, from a timer that runs
    while the calibrator is entered as a context manager."""

    def __init__(self):
        self.at: list[float] = []     # midpoint of each kernel, increasing
        self.took: list[float] = []   # its duration
        self.stolen = 0.0             # total time spent in kernels

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.stolen += t1 - t0

    def __enter__(self) -> "Calibrator":
        for _ in range(5):
            kernel()  # warm-up
        for _ in range(5):
            self._tick(None, None)  # so that even the first operation has kernels near it
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """``fn(*args)``, its start and end, and its duration less the
        kernels that ran inside it."""
        stolen, t0 = self.stolen, time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        return out, t0, t1, t1 - t0 - (self.stolen - stolen)

    def ref_seconds(self, t0: float, t1: float, took: float) -> float:
        """``took`` seconds of work done between ``t0`` and ``t1``, in
        reference seconds."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        near = self.took[lo:hi]
        return took * REFERENCE_S * len(near) / sum(near)
