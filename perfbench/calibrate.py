"""How fast the machine runs Python right now.

The benchmark's machine is shared: identical back-to-back repetitions
of one workload differ by up to 2x in host time, in phases lasting
minutes, with no steal time visible to the guest.  A repetition
therefore also measures the machine: a fixed pure-Python kernel (dict
and attribute access, heap operations, float arithmetic, the mix the
simulator spends its time on) is timed in short bursts before set-up and
every :data:`INTERVAL_S` of the run.  Host times are reported scaled to
:data:`NOMINAL_S`, so a number compares across phases; the raw times are
kept beside them in every run record.

The speed is the nominal time over a trimmed mean of the burst times.
A run's time is a sum, so the speed follows the mean of the bursts
rather than their median, which ignores the short stalls that slow the
run too; trimming drops the few bursts hit by an interrupt or a
collection.  On a 2-vCPU Xeon guest, over 16 repetitions of one seed
whose raw run times spread by 0.36-0.48 (interquartile range over
median), the trimmed mean left scaled times spreading by 0.04-0.08, the
median by 0.10-0.11.

The kernel is part of the benchmark, not of the program, so a change to
the program never changes it.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter
from typing import List

#: Kernel iterations per burst (~2.5 ms).
ITERATIONS = 2_000
#: The scale of reported times: a burst time typical of the kernel on a
#: 2-vCPU Xeon guest at 2.0 GHz running CPython 3.11.
NOMINAL_S = 0.0025
#: Share of bursts dropped from each end before averaging.
TRIM = 0.1
#: Seconds of run between bursts (bursts add ~5% to a repetition's
#: wall time, none to its reported time).
INTERVAL_S = 0.05


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0.0


def kernel(iterations: int = ITERATIONS) -> float:
    """A fixed amount of interpreter work; returns a checksum."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(iterations):
        key = (i * 7919) % 1009
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key)
        node.value += i * 0.5
        heapq.heappush(heap, (node.value, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return acc


class Calibrator:
    """Times kernel bursts and keeps their total out of the run's time.

    Attributes:
        samples: Every burst's duration, in seconds.
        spent: Total seconds spent in bursts (subtract from elapsed).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._last = perf_counter()

    def burst(self) -> None:
        """Time one kernel burst now."""
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._last = end

    def due(self) -> None:
        """Time a burst if :data:`INTERVAL_S` passed since the last one."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.burst()

    def speed(self) -> float:
        """The machine's speed over the bursts so far: nominal burst
        time over the trimmed mean burst time."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        return NOMINAL_S / statistics.fmean(ordered[cut:len(ordered) - cut])
