"""Scaling measured times to a reference CPU speed.

On a shared host the speed of one core drifts by up to 2x within seconds,
while the program's own cost stays fixed. ``SpeedProbe`` times a fixed
matrix-product loop between the program's steps, at most every
``EVERY_S`` seconds, and ``scaled`` turns a measured interval into the time it
would have taken at the speed where the probe takes ``REFERENCE_S``. The
program's steps and the probe mostly slow down together, so the scaled times
vary far less than the raw ones (README.md, Steadiness); a change to the
program's own cost moves them as it moves the raw times. The probe uses its
own arrays and touches no state of the program.
"""

from __future__ import annotations

import bisect
import statistics
import time

EVERY_S = 0.05  # at most one reading per this many seconds
REFERENCE_S = 1.5e-3  # probe time at the reference speed
PRODUCTS = 30  # 64x128 @ 128x128 products per reading, about 1.5-3 ms


class SpeedProbe:
    def __init__(self) -> None:
        import numpy as np  # not at import: numpy loads after run.py pins BLAS threads

        rng = np.random.default_rng(0)
        self._a = rng.random((64, 128))
        self._b = rng.random((128, 128))
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.took: list[float] = []

    def maybe(self) -> None:
        """Take a reading unless one was taken in the last ``EVERY_S``."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.read()

    def read(self) -> None:
        start = time.perf_counter()
        for _ in range(PRODUCTS):
            self._a @ self._b
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.took.append(end - start)

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` less the probe's readings inside it, at the
        reference speed. The readings split the interval into pieces; each
        piece is scaled by the median reading within ``EVERY_S`` of it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        edges = [start]
        for i in range(first, last):
            edges += [self.starts[i], self.ends[i]]
        edges.append(end)
        return sum(self._piece(edges[i], edges[i + 1]) for i in range(0, len(edges), 2))

    def _piece(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.ends, start - EVERY_S)
        hi = bisect.bisect_right(self.starts, end + EVERY_S)
        readings = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return (end - start) * REFERENCE_S / statistics.median(readings)
