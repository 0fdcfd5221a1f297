"""Host-speed calibration: a fixed pure-Python kernel timed between jobs.

The host is shared, and its speed drifts by tens of percent over tens of
seconds (NOTES.md, "Host drift").  The kernel's time right before and right
after a job tells how fast the host ran around it, so a job's time scaled by
NOMINAL_S over the kernel's time repeats far better than the raw time.

The kernel does what the program spends its time on: XOR elimination of
big-int GF(2) rows, and dicts and sets keyed by tuples.  It uses nothing from
uberhom, so no change to the program can change it.
"""

from __future__ import annotations

import random
from time import perf_counter

NOMINAL_S = 0.045  # about the kernel's median time on the host NOTES.md describes
LOOP = 300_000
ROWS = 400
ROW_BITS = 240
TABLE = 40_000


def kernel() -> int:
    total = 0
    for i in range(LOOP):  # bytecode dispatch and small-int arithmetic
        total += i * i
    rng = random.Random(1)
    pivots = {}
    for _ in range(ROWS):  # GF(2) elimination on big-int rows
        row = rng.getrandbits(ROW_BITS)
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    table = {(i % 97, i % 89, i): i for i in range(TABLE)}
    kept = {key for key in table if key[0] < 50}
    return total + len(pivots) + len(kept)


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class HostClock:
    """Times jobs in seconds of a host running at nominal speed.

    Each job's wall time is scaled by NOMINAL_S over the mean of the
    kernel's times just before and just after it (the kernel run after one
    job is the one before the next).  A single kernel time is about as
    noisy as a job's, so it tracks only drift that lasts longer than a job;
    the median over passes takes care of the rest (NOTES.md, "Host drift").
    """

    def __init__(self):
        kernel_seconds()  # warm-up
        self.last = kernel_seconds()

    def run(self, runner, job):
        """(job result, scaled seconds)."""
        result = runner.run(job)
        after = kernel_seconds()
        scaled = result.seconds * NOMINAL_S / ((self.last + after) / 2)
        self.last = after
        return result, scaled
