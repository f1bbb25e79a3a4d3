"""Host-speed calibration of the benchmark's timings.

On a shared host the same code runs up to ~2x slower for minutes at a
time, because of other tenants, not the program: a cold campaign pass
measured 2.8 s in one run and 4.8 s a few minutes later. Raw medians
then differ between runs by more than any bound worth having.

So every timed sample is split into short segments at natural
boundaries (a mission finished, a training batch started), each
bracketed by a fixed calibration kernel (plain Python object arithmetic
plus small NumPy ops, the mix the workloads run) and scaled by
:data:`REFERENCE_S` over the kernel's time around it. The result is
"seconds on a host where the kernel takes :data:`REFERENCE_S`":
interference that slows the kernel and the sample
alike cancels, while a change to the program moves only the sample.
The kernel is benchmark code, so no program change can move it.

Segments must be short: one probe before and one after a whole pass
(15 s of Table I training) missed the slowdowns in between, and the
pass's normalized time spread by 23% over five seeds. A probe's time is
left out of the sample, which is right only while nothing else of the
program runs during it, so a boundary is skipped while the process has
another thread or a child process (:func:`alone`); a pass on a pool is
then one segment between two probes.
"""

from __future__ import annotations

import multiprocessing
import statistics
import threading
import time
from typing import Callable, List, Optional

import numpy as np

#: The kernel's time on the reference host (it reads ~4.5-5 ms on an
#: idle 2-vCPU Xeon container; ~2x that when the host is contended).
REFERENCE_S = 0.005

clock = time.perf_counter


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def kernel() -> float:
    """A fixed amount of interpreter and small-array NumPy work."""
    acc = 0.0
    points = [_Point(i * 0.5, i * 0.25) for i in range(3000)]
    for _ in range(8):
        for p in points:
            acc += (p.x * p.x + p.y * p.y) ** 0.5
    a = np.linspace(0.0, 1.0, 512)
    for _ in range(150):
        a = np.sqrt(a * a + 1.0) - 0.5
    return acc + float(a[0])


def probe() -> float:
    """Median seconds of three kernel calls."""
    times = []
    for _ in range(3):
        start = clock()
        kernel()
        times.append(clock() - start)
    return statistics.median(times)


def alone() -> bool:
    """No other thread or child process of ours may be running the program."""
    return threading.active_count() == 1 and not multiprocessing.active_children()


class Segments:
    """A timed call as a chain of segments, with a speed probe between them.

    The probe before and after each segment bracket it; the segment's
    normalized time is its duration times :data:`REFERENCE_S` over the
    mean of the two probes, raised to ``sensitivity``: how strongly the
    timed work follows the kernel's slowdown (1: as strongly as the
    kernel itself). Probes run between segments, so their own time is in
    neither total. Starts timing on construction.
    """

    def __init__(
        self, probe_fn: Optional[Callable[[], float]] = None, sensitivity: float = 1.0
    ) -> None:
        self.probe_fn = probe_fn or probe
        self.sensitivity = sensitivity
        self.raw = 0.0
        self.normalized = 0.0
        self.probes: List[float] = [self.probe_fn()]
        self._start = clock()

    def tick(self) -> float:
        """Close the current segment and open the next; returns its normalized seconds."""
        seconds = clock() - self._start
        self.probes.append(self.probe_fn())
        speed = REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2.0)
        normalized = seconds * speed**self.sensitivity
        self.raw += seconds
        self.normalized += normalized
        self._start = clock()
        return normalized
