"""Machine-speed calibration for runs on shared, noisy hosts.

On a shared virtual machine the same pure-Python work can take 30% more or
less time from one half-minute to the next, in CPU time as well as wall
time, because other tenants compete for the core.  A run therefore
interleaves a fixed reference chunk -- pure Python in this file, with no
call into the package -- between the operations it measures, and scales
its times by ``NOMINAL_CHUNK_S`` over the mean chunk time of the run.  A
slower package still reads slower; a slower machine does not.
"""

from __future__ import annotations

import statistics
import time

# Mean time of one reference chunk on the machine the baseline was recorded
# on (Intel Xeon at 2.0 GHz, 2 vCPUs, Python 3.11).  Scaled times are in
# seconds on that machine at its typical speed.
NOMINAL_CHUNK_S = 0.001

# One chunk per this much measured work, so chunks sample the run evenly.
PROBE_EVERY_S = 0.05

_SIZE = 10
_MATRIX = [[(7 * i + 13 * j + i * j % 5) % 11 - 5 for j in range(24)] for i in range(24)]


def reference_chunk() -> int:
    """Fixed work in the package's mix: exponent tuples, dict lookups and
    fraction-free integer elimination."""
    index = {}
    for a in range(_SIZE + 1):
        for b in range(_SIZE + 1 - a):
            index[(a, b, _SIZE - a - b)] = len(index)
    hits = 0
    for key in index:
        for step in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            if tuple(x - y for x, y in zip(key, step)) in index:
                hits += 1
    rows = [list(row) for row in _MATRIX]
    prev = 1
    for col in range(8):
        pivot = rows[col][col] or 1
        for i in range(col + 1, len(rows)):
            factor = rows[i][col]
            row, prow = rows[i], rows[col]
            for j in range(col, len(row)):
                row[j] = (pivot * row[j] - factor * prow[j]) // prev
        prev = pivot
    return hits + rows[-1][-1]


class SpeedProbe:
    """Reference chunk times, sampled in proportion to the measured work."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, busy_s: float) -> None:
        """Run chunks for ``busy_s`` seconds of measured work just done."""
        for _ in range(max(1, round(busy_s / PROBE_EVERY_S))):
            started = time.perf_counter()
            reference_chunk()
            self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Scale from this run's seconds to nominal seconds."""
        return NOMINAL_CHUNK_S / statistics.fmean(self.samples)
