"""Calibrated time: op times rescaled by the machine's speed at that moment.

On a shared machine the speed of one CPU drifts by up to 2x over seconds
to minutes, as neighbours come and go; that drift moves every raw time of a
run together.  The benchmark therefore times a fixed calibration kernel (a
pure-Python integer loop; of the kernels tried, its time tracked the
interpreter-bound hardywitness ops most closely) just before and just after
every op, and reports

    calibrated time = raw time x REFERENCE_S / mean(kernel time before, after)

i.e. the time the op would take on a machine where the kernel takes exactly
REFERENCE_S.  The kernel does not touch hardywitness, so a change to the
program moves calibrated times exactly as it moves raw ones.  Raw figures are
kept in the run record.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

REFERENCE_S = 1e-3


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts) to one CPU.

    The kernel and the op must run on the same CPU for the kernel to
    measure the speed the op saw.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _kernel() -> int:
    s = 0
    for k in range(10000):
        s += (k * 7) % 13
    return s


def kernel_seconds() -> float:
    """Median of three timed kernel runs (about 1 ms each)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Calibrator:
    """Per-op scale factors from kernel times sampled between ops.

    An op's factor uses the kernel times just before and just after it.
    """

    def __init__(self):
        self._window = [kernel_seconds()]
        self.kernel_times = list(self._window)

    def sample(self) -> None:
        """Call right after each op."""
        self._window.append(kernel_seconds())
        self.kernel_times.append(self._window[-1])

    def close(self) -> list[float]:
        """Factors for the ops sampled since the last close, in order."""
        w = self._window
        factors = [2 * REFERENCE_S / (w[i] + w[i + 1]) for i in range(len(w) - 1)]
        self._window = w[-1:]
        return factors
