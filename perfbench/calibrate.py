"""Machine-speed reference for the benchmark's timings.

On a shared virtual machine the speed of one core drifts by tens of
percent over tens of seconds (other tenants, frequency changes), far
more than a regression bound.  The benchmark therefore runs a fixed
reference kernel between requests and scales every request time by
NOMINAL_MS / (median kernel time around it): a time is reported in ms
"on a machine where the kernel takes NOMINAL_MS".  The kernel mixes the
kinds of work the program does (scalar updates of a small numpy array,
a heap of tuples with fsum energies, float formatting), so it slows
down with the program when the machine does.  It is frozen here and
uses no program code, so changing the program does not change it.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter

import numpy as np

NOMINAL_MS = 1.0
# request time per kernel run interleaved after a request
SAMPLE_EVERY_S = 0.025
# samples on each side of a request's own that also set its scale
HALF_WINDOW = 8


def kernel() -> str:
    a = np.eye(6) + 0.1
    for p in range(5):
        for q in range(p + 1, 6):
            c, s = 0.8, 0.6
            for i in range(6):
                x, y = a[i, p], a[i, q]
                a[i, p] = c * x - s * y
                a[i, q] = s * x + c * y
    heap = [(0.0, (0, 0, 0))]
    out = []
    for _ in range(150):
        e, occ = heapq.heappop(heap)
        out.append(format(e, ".17g"))
        for i in range(3):
            nxt = occ[:i] + (occ[i] + 1,) + occ[i + 1:]
            heapq.heappush(heap, (math.fsum(f * n for f, n in zip((1.0, 1.3, 1.7), nxt)), nxt))
    return ",\n".join(out)


class Speed:
    """Kernel timings taken between requests."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> tuple[int, int]:
        """Run the kernel ``count`` times; returns the samples' index range."""
        first = len(self.samples)
        for _ in range(count):
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)
        return first, len(self.samples)

    def after_request(self, seconds: float) -> tuple[int, int]:
        return self.sample(max(1, round(seconds / SAMPLE_EVERY_S)))

    def scale(self, first: int, end: int) -> float:
        """Factor that turns measured seconds into nominal seconds, from
        the samples in [first, end) and HALF_WINDOW more on each side."""
        window = self.samples[max(0, first - HALF_WINDOW):end + HALF_WINDOW]
        return NOMINAL_MS * 1e-3 / float(np.median(window))
