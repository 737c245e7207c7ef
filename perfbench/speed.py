"""Machine-speed calibration: a fixed reference computation, timed.

The benchmark's machine is shared, and its speed drifts by tens of per
cent over minutes; CPU time drifts with wall time, so the drift is not
steal time that CPU time could avoid.  ``run.py`` times this fixed
computation, which runs no code of the program, before the first worker
process and after each, and multiplies the run's times by
``REFERENCE_S / (median of those timings)``.  A slow spell then slows
the program and the reference together and cancels, while a change to
the program cannot move the reference.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

import numpy as np

__all__ = ["REFERENCE_S", "reference_s", "reference_work"]

#: Median time of :func:`reference_work` on the reference machine (a
#: 2-vCPU 2.1 GHz Xeon VM), so scaled times read as seconds there.
REFERENCE_S = 0.1
#: Timings of :func:`reference_work` in one calibration.
SAMPLES = 3


def reference_work() -> float:
    """The same mix the workloads run: NumPy gathers, sorts and weighted
    draws, and an interpreter loop over small objects."""
    rng = np.random.default_rng(7)
    values = rng.random(1_000_000)
    index = rng.integers(0, values.size, 500_000)
    total = 0.0
    for _ in range(2):
        total += float(np.sort(values[index])[::1000].sum())
        draws = rng.choice(1000, size=100_000, p=np.full(1000, 1e-3))
        total += float(np.bincount(draws).max())
    sums: dict[int, float] = {}
    for row in [SimpleNamespace(key=i % 1009, value=i * 0.5) for i in range(60_000)]:
        sums[row.key] = sums.get(row.key, 0.0) + row.value
    return total + sum(sums.values())


def reference_s(samples: int = SAMPLES) -> float:
    """Median seconds of ``samples`` runs of :func:`reference_work`."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
