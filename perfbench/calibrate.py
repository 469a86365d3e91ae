"""A fixed CPU kernel that measures the machine's current speed, and a clock built on it.

On a shared host the same job's time drifts by half again between a fast
and a slow state, in CPU time as much as in wall time, and the state can
change within a job.  ``StepClock`` runs this kernel before the first step
and after every step (each netsafety command, each set-up) and converts the
step's wall time to seconds at the reference speed: wall time multiplied by
``REFERENCE_S`` over the mean of the kernel's times just before and after
it.  The kernel uses no netsafety code, so a change to the package moves
the steps and never the kernel.

The work mirrors the job's mix: CSV parsing into grouped tuples, float
formatting back to CSV, and many small numpy calls.  It takes about
``REFERENCE_S`` on the host the benchmark was tuned on, in its fast state.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

REFERENCE_S = 0.03

_TEXT = "\n".join(f"{i},V{i % 97},{i * 0.37!r},{i * 1.1!r}" for i in range(4000))
_ARRAYS = [np.random.default_rng(i).random(8) for i in range(1000)]


def kernel_seconds() -> float:
    """Run the kernel once; returns its wall time."""
    t0 = time.perf_counter()
    groups: dict[str, list] = {}
    for row in csv.reader(io.StringIO(_TEXT)):
        groups.setdefault(row[1], []).append((int(row[0]), float(row[2]), float(row[3])))
    writer = csv.writer(io.StringIO())
    for key, rows in groups.items():
        for frame, x, y in rows:
            writer.writerow([frame, key, repr(x * 1.5), repr(y + 0.25)])
    for a in _ARRAYS:
        order = np.argsort(a, kind="stable")
        _, inverse = np.unique((a * 4).astype(int), return_inverse=True)
        np.bincount(inverse, weights=a[order])
    return time.perf_counter() - t0


class StepClock:
    """Sums steps' wall times, and the same times at the reference speed.

    Each kernel time is the median of ``kernel_runs`` runs; a lone long step
    (a set-up) uses several so that one hiccup does not set its speed.
    """

    def __init__(self, kernel_runs: int = 1):
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._kernel_runs = kernel_runs
        self._kernel = self._measure()

    def _measure(self) -> float:
        return statistics.median(kernel_seconds() for _ in range(self._kernel_runs))

    def time(self, fn, *args):
        """Call ``fn(*args)`` as one step and return its result."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            seconds = time.perf_counter() - t0
            kernel = self._measure()
            self.wall_s += seconds
            self.reference_s += seconds * REFERENCE_S / ((self._kernel + kernel) / 2)
            self._kernel = kernel
