"""A fixed reference workload that measures how fast the host is right now.

On a shared host the speed of a vCPU drifts by tens of percent over minutes,
so a pass's wall time alone cannot tell two commits apart. The worker runs
this loop between the experiments of every timed pass, for REFERENCE_SHARE
of the time of the experiment before, and divides each experiment's time by
the mean call time of the loop on either side of it. The loop calls nothing
from imbtab, so a change to the program does not move it.

Its work mixes what a pass spends time on: the interpreter (CSV-like string
parsing, dict and list work), many small numpy calls (the kNN loops), large
vectorised numpy calls (sorting, cumulative sums, elementwise passes over
arrays larger than a core's L2 cache) and small BLAS products. Its arrays
take a few MB, which the worker's peak RSS includes.
"""

from __future__ import annotations

import time

import numpy as np

# Reference time per second of experiment: enough to sample the host's speed
# densely, little enough to leave most of a run to the workload.
REFERENCE_SHARE = 0.1
LINES, LINE_REPS = 2_000, 11
SMALL_ROWS, SMALL_COLS, SMALL_QUERIES = 400, 16, 2_000
LARGE, LARGE_REPS = 300_000, 6
GEMV_ROWS, GEMV_COLS, GEMV_REPS = 4_000, 32, 1_000


class ReferenceLoop:
    """Callable: one run of the fixed work; returns a checksum of its results."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._lines = [
            ",".join(f"{v:.6f}" for v in row) for row in rng.random((LINES, 8)).tolist()
        ]
        self._small = rng.random((SMALL_ROWS, SMALL_COLS))
        self._ids = np.arange(SMALL_ROWS)
        self._large = rng.random(LARGE)
        self._matrix = rng.random((GEMV_ROWS, GEMV_COLS))
        self._vector = rng.random(GEMV_COLS)

    def __call__(self):
        counts, total = {}, 0.0
        for _ in range(LINE_REPS):
            for line in self._lines:
                fields = line.split(",")
                total += sum(float(f) for f in fields)
                key = fields[0][:3]
                counts[key] = counts.get(key, 0) + 1

        picked = 0
        for i in range(SMALL_QUERIES):
            diff = self._small - self._small[i % SMALL_ROWS]
            d2 = np.einsum("ij,ij->i", diff, diff)
            picked += int(np.lexsort((self._ids, d2))[1])

        for _ in range(LARGE_REPS):
            ordered = np.sort(self._large)
            total += float(np.cumsum(ordered)[-1]) + float(np.sqrt(self._large * 2.0 + 1.0).sum())

        for _ in range(GEMV_REPS):
            total += float((self._matrix @ self._vector).sum())
        return total + picked + len(counts)

    def timed_group(self, seconds):
        """Run until the calls add up to REFERENCE_SHARE * seconds, at least once.

        Returns the mean seconds per call.
        """
        times = []
        while not times or sum(times) < REFERENCE_SHARE * seconds:
            t0 = time.perf_counter()
            self()
            times.append(time.perf_counter() - t0)
        return sum(times) / len(times)
