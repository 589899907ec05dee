"""Machine-speed reference for the timing metrics.

Shared machines drift in speed.  On a shared 2-CPU virtual machine,
one fixed op timed in one process had 10-second medians from 17 to
26 ms, and two sets of ten runs taken twenty minutes apart differed by
25% on every timing metric.  Through each run the benchmark therefore
also times a fixed loop that never calls bornverifier, in the same
style of work: small numpy arrays driven from Python.  It scales the op
timings to the speed at which that loop takes ``REFERENCE_MS``.  Over
those ten-second windows the ratio of op time to loop time stayed
within 4%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 10.0  # loop time that defines the reference speed
EVERY_S = 0.5  # least time between two sampling points
SAMPLES = 3  # loop timings per sampling point

_GATE = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def loop() -> float:
    v = np.array([0.6, 0.8j])
    total = 0.0
    for _ in range(250):
        w = np.kron(v, v)
        t = np.moveaxis(w.reshape(2, 2), 0, 1).reshape(-1)
        m = _GATE @ t.reshape(2, 2)
        total += float(np.vdot(t, t).real) + float(np.trace(m).real) + float(np.linalg.norm(w))
    return total


class Calibration:
    """Loop timings sampled through a run, wall and process CPU."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        for _ in range(SAMPLES):
            w0, c0 = time.perf_counter(), time.process_time()
            loop()
            c1, w1 = time.process_time(), time.perf_counter()
            self.wall.append(w1 - w0)
            self.cpu.append(c1 - c0)
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def wall_scale(self) -> float:
        """Factor that takes a wall time to the reference speed."""
        return REFERENCE_MS / (statistics.median(self.wall) * 1e3)

    def cpu_scale(self) -> float:
        """Factor that takes a CPU time to the reference speed."""
        return REFERENCE_MS / (statistics.median(self.cpu) * 1e3)
