"""Reference-speed clock: wall times scaled by a calibration kernel.

The speed of a small shared machine changes under the benchmark.  On the
2-vCPU host the bounds were set on, with CPU time tracking wall time and
negligible steal, a fixed Python loop's 10 s mean moved by 25 % within a
minute; one kernel took 2.1 ms in one process and 3.4 ms in the next; and
over 8 s windows of one process the ``ensemble_diag`` and ``stream_bulk``
work took 1.8x and 1.5x ranges of wall time.  Runs of tens of seconds do
not average that out: ten runs of a wall-clock version of this benchmark
spread by 15-48 % of their median (interquartile range).  A fixed kernel
run on the same CPU close in time follows most of it: scaled by it, ten
25 s runs per workload spread by 1-7 %.

So the benchmark pins itself, and every process it starts, to one CPU
(:func:`pin_cpu`), runs :func:`kernel` between pieces of work, and scales
each piece by ``REF_S / kernel time`` measured near it
(:meth:`RefClock.ref_seconds`).  Every time the benchmark reports is in
*reference seconds*: seconds on a machine on which one kernel run takes
``REF_S``.  A change to the package moves them as it moves wall time; a
change in the machine's speed during or between runs mostly cancels out.
The raw wall times are printed next to them.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

#: Kernel time that defines the reference speed: about the median kernel
#: run on the machine the bounds were set on (4.5-7 ms as its speed drifts).
REF_S = 0.005
#: Kernel runs per calibration; their median is the calibration.
CAL_REPEATS = 3
#: Work done between two calibrations inside a run of the flow.
CAL_EVERY_S = 0.2
#: Calibrations within this many seconds of a piece of work scale it.
CAL_WINDOW_S = 0.5

_RNG = np.random.default_rng(20230128)
_CLOUD = _RNG.random((100_000, 2))  # the size of a stream_bulk particle array
_OUT = np.empty_like(_CLOUD)
_NOISE = np.empty((20_000, 2))
_MIX = _RNG.random((2, 2))
_COST = _RNG.random((256, 256))


def kernel() -> float:
    """A fixed mix of the work the workloads do: interpreted Python,
    arithmetic on a (100000, 2) array, Gaussian draws and one assignment
    problem.  Returns a value so no part is skipped.

    Large results go to preallocated buffers: a fresh large array costs a
    page fault per page or not, depending on what the allocator kept from
    the process's earlier work, which would make the kernel's time depend
    on the workload it calibrates.  Loops of calls on tiny arrays are left
    out; their time followed the flow's less closely than the rest did.
    """
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    for _ in range(2):
        np.matmul(_CLOUD, _MIX, out=_OUT)
        np.multiply(_OUT, 0.5, out=_OUT)
        np.subtract(_OUT, 0.2, out=_OUT)
        np.maximum(_OUT, 0.0, out=_OUT)
    np.random.default_rng(acc).standard_normal(out=_NOISE)
    rows, cols = linear_sum_assignment(_COST)
    return float(_OUT.sum() + _NOISE.sum() + _COST[rows, cols].sum())


def pin_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU, so the
    calibration and the work it scales share a CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class RefClock:
    """Calibrations taken during a run, and the scaling they imply."""

    def __init__(self):
        self.ends: list[float] = []  # monotonic time at which each calibration ended
        self.kernel_s: list[float] = []  # median kernel time of each calibration
        self.spent_s = 0.0  # wall time spent calibrating
        kernel()  # first call pays for lazy set-up in NumPy and SciPy

    def calibrate(self) -> None:
        """Time ``CAL_REPEATS`` kernel runs after an untimed one, which
        brings the kernel's data back into the caches: the work before a
        calibration (a child process, a flow step) evicts it to a degree
        that differs between workloads."""
        start = time.monotonic()
        kernel()
        runs = []
        for _ in range(CAL_REPEATS):
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        end = time.monotonic()
        self.ends.append(end)
        self.kernel_s.append(statistics.median(runs))
        self.spent_s += end - start

    def maybe_calibrate(self) -> None:
        """Calibrate if ``CAL_EVERY_S`` have passed since the last one."""
        if not self.ends or time.monotonic() - self.ends[-1] >= CAL_EVERY_S:
            self.calibrate()

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work done from ``start`` to ``end``.

        The scale is the median calibration that ended within
        ``CAL_WINDOW_S`` of the work's midpoint, or, when none did, the
        median of the two that bracket it.  The machine changes speed
        within a second, so a step's latency is scaled by the speed near
        it, not by the run's; the median of the few calibrations near it
        damps the scatter of single ones.
        """
        mid = 0.5 * (start + end)
        near = self.kernel_s[
            bisect.bisect_left(self.ends, mid - CAL_WINDOW_S):bisect.bisect_right(self.ends, mid + CAL_WINDOW_S)
        ]
        if not near:
            i = bisect.bisect_right(self.ends, start)
            near = self.kernel_s[max(i - 1, 0):i + 1]
        if not near:
            raise ValueError("no calibration was taken")
        return (end - start) * REF_S / statistics.median(near)

    def speed(self) -> float:
        """Median machine speed over the run, relative to the reference."""
        return REF_S / statistics.median(self.kernel_s)
