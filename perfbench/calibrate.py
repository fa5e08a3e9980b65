"""Host-speed probe that the end-to-end figures are scaled by.

On a shared host the same work runs at speeds that drift by 20-25% in
phases that last seconds to minutes.  A probe times a fixed kernel of
heap, dict and small-NumPy work; the *slowdown* around a pass is the
median of the probes taken near it over the kernel's time on the
reference host.

The probe runs in the measured process: a kernel timed in a process of
its own did not follow the program's speed.  So that the program cannot slow the probe
down and have its own cost divided out, a probe is only taken while no
thread of the program runs (the caller waits for that) and with the
garbage collector off, so the program's heap is not scanned inside it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy as np

#: Seconds :func:`probe` takes on the reference host (an idle 2-vCPU
#: x86-64 VM, Python 3.11, NumPy 2.4).
CALIBRATION_REF_S = 0.0025
#: Kernel runs per probe; a probe reports their median.
KERNEL_REPEATS = 3


def calibration_kernel() -> float:
    """Seconds that one fixed unit of heap, dict and small-NumPy work
    takes right now."""
    started = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 3001, i))
        table[i & 255] = i
    while heap:
        heapq.heappop(heap)
    x = np.arange(20000, dtype=np.float64)
    y = x.copy()
    for _ in range(30):
        y += 0.5 * x
        float(x @ y)
    return time.perf_counter() - started


def probe() -> float:
    """Seconds of one probe: the median of a few kernel runs."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(calibration_kernel()
                                 for _ in range(KERNEL_REPEATS))
    finally:
        if collecting:
            gc.enable()
