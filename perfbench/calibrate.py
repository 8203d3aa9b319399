"""Host-speed calibration: a fixed reference kernel timed around every job.

The benchmark runs on a shared virtual machine whose CPUs change speed by
tens of per cent from one ten-second stretch to the next, as other tenants
load the host. The same job on the same inputs then takes 2.0 s in one
stretch and 3.0 s in the next. The run pins itself and its jobs to one CPU
and times the reference kernel below in a group before and after every
set-up and job. The kernel is fixed code of the benchmark, not of botdetect,
and mixes the kinds of work the workloads do: batch-1 and batch-64
recurrent matmuls, sorting slices for tree splits, kNN distances with a
partial sort, fresh-page allocation and plain interpreter work.

A job's calibrated time is its wall time times `REFERENCE_S` over the
kernel's time around it: its time on a host where the kernel takes
`REFERENCE_S` seconds. A change to botdetect moves the job's wall time but
not the kernel's, so it moves the calibrated time by the same share.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's median time on the 2-CPU virtual machine the bounds were
# set on, so that calibrated times there read close to wall times.
REFERENCE_S = 0.1
# Kernel calls per group; a group's median is its reading.
GROUP_CALLS = 3


def _inputs():
    base = np.arange(2000 * 12, dtype=np.float64).reshape(2000, 12)
    rows = np.sin(base * 0.37) + np.cos(base * 0.011)
    w1 = np.cos(np.arange(50 * 200, dtype=np.float64).reshape(50, 200) * 0.13) * 0.1
    w64 = np.sin(np.arange(100 * 200, dtype=np.float64).reshape(100, 200) * 0.07) * 0.1
    x64 = np.cos(np.arange(64 * 100, dtype=np.float64).reshape(64, 100) * 0.05)
    return rows, w1, w64, x64


def reference_kernel(inputs) -> float:
    """One call of the fixed reference work; returns a checksum."""
    rows, w1, w64, x64 = inputs
    acc = 0.0
    h = np.zeros(50)
    for _ in range(2000):  # batch-1 recurrence
        g = h @ w1
        h = np.tanh(g[:50]) / (1.0 + np.exp(-g[50:100]))
    acc += float(h.sum())
    for _ in range(150):  # batch-64 gates
        g = x64 @ w64
        acc += float(np.tanh(g).sum())
    for j in range(450):  # tree-split scans
        start = (j * 7) % 1500
        col = rows[start:start + 500, j % 12]
        order = np.argsort(col, kind="stable")
        acc += float(np.cumsum(col[order])[-1])
    for q in range(150):  # kNN queries
        d = ((rows - rows[q]) ** 2).sum(axis=1)
        acc += float(np.argpartition(d, 5)[:5].sum())
    for _ in range(8):  # fresh pages
        block = np.empty(1_000_000)
        block[:] = 1.0
        acc += float(block[::4096].sum())
    counts: dict[int, int] = {}
    for i in range(100000):  # interpreter work
        counts[i % 997] = counts.get(i % 997, 0) + i
    return acc + sum(counts.values())


class Calibration:
    """The kernel's readings of one run, one per group."""

    def __init__(self):
        self._inputs = _inputs()
        self.readings: list[float] = []
        reference_kernel(self._inputs)  # warm-up, untimed

    def take(self) -> float:
        """Time one group of kernel calls; return and keep its median."""
        times = []
        for _ in range(GROUP_CALLS):
            start = time.perf_counter()
            reference_kernel(self._inputs)
            times.append(time.perf_counter() - start)
        self.readings.append(statistics.median(times))
        return self.readings[-1]

    def calibrated(self, wall: float) -> float:
        """Scale a wall time measured between the last two readings to the
        reference host speed."""
        around = (self.readings[-2] + self.readings[-1]) / 2
        return wall * REFERENCE_S / around
