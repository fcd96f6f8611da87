"""A reference kernel that tracks the machine's speed from moment to moment.

On a shared virtual machine the same operation can take 1.4x longer for
minutes at a time, which no amount of averaging inside a 30 s run removes.
The benchmark therefore runs this kernel between operations, at most once
every SAMPLE_EVERY_S, and reports each operation's time scaled to a fixed
kernel speed:

    normalized = wall time * NOMINAL_S / (mean kernel time around the operation)

The kernel is exact `Fraction` multiply-add in pure Python, the same kind of
work as the package's hot path, and it calls nothing from the package, so a
change to the package cannot move it.  On a machine where the kernel takes
NOMINAL_S, normalized and wall times agree.
"""
from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0013
REPS = 16
NEIGHBOURS = 4          # kernel samples taken on each side of an operation
SAMPLE_EVERY_S = 0.02   # at most one sample per this much wall time

_A = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(32)]
_B = [Fraction(i % 11 - 5, i % 3 + 1) for i in range(32)]


def kernel_seconds() -> float:
    """One timed kernel run, with the cyclic collector paused so that
    garbage left by the previous operation is not collected on its clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPS):
            sum(a * b for a, b in zip(_A, _B))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factors(samples: list, ops: int) -> list:
    """Scale factor per operation, from kernel samples taken between them.

    samples holds (k, seconds) in time order, where k is the number of
    operations done before the sample.  Operation i uses the mean of the
    NEIGHBOURS samples taken before it and the NEIGHBOURS taken after it.
    The mean, not the median: under time-slicing a short sample is either
    preempted or not, and only the mean tracks the share of time lost.
    """
    factors = []
    j = 0                       # first sample taken after operation i
    for i in range(ops):
        while j < len(samples) and samples[j][0] <= i:
            j += 1
        near = samples[max(0, j - NEIGHBOURS):j + NEIGHBOURS]
        factors.append(NOMINAL_S / statistics.fmean(t for _, t in near))
    return factors
