"""Host-speed calibration for CPU timings on a shared machine.

On a virtual machine that shares its cores and caches with other
tenants, the CPU time of the same Python work drifts by 20-40% over tens
of seconds (measured on a 2-vCPU guest: one 40-loop scheduling block
took 1.1 s to 1.9 s of CPU within one process).  Longer runs and
min-of-N do not remove a drift that outlasts the run.

A fixed reference routine, written here and independent of the code
under test, runs between operations (the garbage collector paused, so
only the host's speed shows).  Each operation's CPU time is scaled by
``NOMINAL_SECONDS / reference time``, the median of the latest samples.
In five-run trials of ``paper-table2`` this cut the run-to-run spread
(quartile distance over median) of the throughput metrics from 23-32%
to 1-4%.  A change to ``repro`` cannot move the reference, so a slower
or faster program still reads as slower or faster; only the host's
state is divided out.

Scaled values read as seconds on a host where the reference takes
exactly ``NOMINAL_SECONDS``.  The constant is fixed forever: changing it
rescales every timing metric.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from statistics import median
from typing import Callable, Deque, List

#: Reference time that defines a "calibrated second" (never change it).
NOMINAL_SECONDS = 0.002

#: Operation CPU time between two reference samples.
SAMPLE_EVERY = 0.05


def reference_work() -> int:
    """Dictionary, tuple, set, sort and branch work typical of the scheduler."""
    table = {}
    seen = set()
    for i in range(3000):
        key = (i * 7919) % 2003
        hit = table.get(key)
        table[key] = (key, i) if hit is None else (hit[0], hit[1] + i)
        if i % 3:
            seen.add((key, i & 7))
    total = 0
    for _key, (first, count) in sorted(table.items(), key=lambda kv: kv[1][1]):
        if first & 1 and (first, count & 7) not in seen:
            total += count
    return total


class Calibration:
    """Reference samples taken between operations, and the scale they give."""

    def __init__(self) -> None:
        self.recent: Deque[float] = deque(maxlen=3)
        self.samples: List[float] = []
        self._due = float("-inf")

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.process_time()
            reference_work()
            elapsed = time.process_time() - started
        finally:
            if enabled:
                gc.enable()
        self.recent.append(elapsed)
        self.samples.append(elapsed)
        self._due = time.process_time() + SAMPLE_EVERY

    def measure(self, call: Callable[[], object]):
        """Run ``call``; return its value and its CPU time in calibrated
        seconds.

        The reference is the median of the latest samples, taken before
        the operation when enough operation time has passed.  An
        operation longer than ``SAMPLE_EVERY`` is bracketed: fresh
        samples after it are averaged with those before, so host drift
        during a long operation is divided out too.
        """
        if time.process_time() >= self._due or len(self.recent) < self.recent.maxlen:
            self.sample()
        before = median(self.recent)
        started = time.process_time()
        value = call()
        seconds = time.process_time() - started
        reference = before
        if seconds >= SAMPLE_EVERY:
            self.recent.clear()
            for _ in range(self.recent.maxlen):
                self.sample()
            reference = (before + median(self.recent)) / 2
        return value, seconds * NOMINAL_SECONDS / reference
