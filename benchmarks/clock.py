"""Calibrated time: wall time scaled by the host's current speed.

On a shared virtual machine the same code can run almost twice as fast in
one minute as in the next, and code that streams through large matrices
slows less than code on small arrays. Each ``Clock.lap()`` therefore times a
reference kernel that does the package's kind of work at the workload's own
size: transition steps of a tour walk (a row read, a cumsum, a weighted draw)
over a fixed random n x n matrix. It returns NOMINAL_S over the mean kernel
time at the lap's two ends. Wall time measured between two laps, multiplied
by that factor, is in calibrated seconds: one calibrated second is the time
of 1 / NOMINAL_S kernel runs. The kernel is frozen here, independent of
acsfa, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 1e-3
STEPS = 60  # transition steps per kernel run
REPEATS = 9  # kernel runs per lap; their median is used


class Clock:
    def __init__(self, n: int) -> None:
        self._weights = 1.0 / (np.random.default_rng(0).random((n, n)) + 0.1)
        self._rng = np.random.default_rng(1)
        self._kernel()  # the first call pays numpy's lazy set-up
        self._last = self.kernel_s()

    def _kernel(self) -> None:
        n = self._weights.shape[0]
        rng = self._rng
        r = int(rng.integers(n))
        visited = np.zeros(n, dtype=bool)
        visited[r] = True
        for _ in range(STEPS):
            if visited.all():
                visited[:] = False
                visited[r] = True
            cand = np.flatnonzero(~visited)
            c = np.cumsum(self._weights[r, cand])
            r = int(cand[min(int(np.searchsorted(c, rng.random() * c[-1])), cand.size - 1)])
            visited[r] = True

    def kernel_s(self) -> float:
        """Median time of one kernel run."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def lap(self) -> float:
        """Factor from wall seconds since the previous lap to calibrated seconds."""
        now = self.kernel_s()
        factor = NOMINAL_S / (0.5 * (self._last + now))
        self._last = now
        return factor
