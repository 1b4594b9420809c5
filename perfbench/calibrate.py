"""Machine-speed probe: scales measured times to a reference speed.

On a shared box the same clearing can take 6 s in one minute and 10 s a few
minutes later, because other tenants slow the core it runs on; the two cores
of a 2-core box slow independently.  A fixed kernel timed on the same core
at the same moment slows by nearly the same factor, so a time divided by the
kernel's time is steady where the raw time is not.  Both kernels run no
lemclear code, so a change to the program moves the scaled times and leaves
the kernels alone.  Small-array numpy work, the kind the cone solver's
per-cone loops do, tracks a clearing (log-time spread per clearing 3-4%
against 13-19% raw); a plain interpreter loop tracks set-up, which is mostly
module import (8% against 14% over 30 fresh interpreters), where the numpy
kernel overcorrects.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# one call of each kernel on the quiet 2-core box the benchmark was defined on
REFERENCE_NUMPY_S = 8e-4
REFERENCE_PYTHON_S = 1e-3
INTERVAL_S = 0.04    # sampling period while a clearing runs

_V = np.arange(4.0)


def numpy_kernel() -> float:
    """Seconds for one fixed burst of small-array numpy work."""
    t0 = time.perf_counter()
    u = _V
    for _ in range(150):
        d = u[0] * u[0] - u[1:] @ u[1:]
        u = np.concatenate(([u[0]], u[1:] * 1.0000001)) + d * 0.0
    return time.perf_counter() - t0


def python_kernel() -> float:
    """Seconds for one fixed burst of interpreted integer arithmetic."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    return time.perf_counter() - t0


def python_speed(calls: int = 20) -> float:
    """Median ``python_kernel`` time over a few back-to-back calls."""
    return statistics.median(python_kernel() for _ in range(calls))


class SpeedSampler:
    """Times ``numpy_kernel`` every INTERVAL_S while the ``with`` body runs.

    A SIGALRM handler runs the kernel between bytecodes of the body, on the
    same thread and core.  ``scale`` turns the body's wall time into seconds
    at the reference speed, after removing the time the samples took.
    """

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.busy = sum(self.samples)
        if not self.samples:
            self.samples.append(numpy_kernel())

    def _sample(self, signum, frame) -> None:
        self.samples.append(numpy_kernel())

    def net(self, wall: float) -> float:
        """Wall seconds of the body without the samples."""
        return wall - self.busy

    def scale(self, wall: float) -> float:
        return self.net(wall) * REFERENCE_NUMPY_S / statistics.fmean(self.samples)
