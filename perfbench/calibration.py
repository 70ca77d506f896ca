"""A fixed reference loop, timed next to the program, to cancel host drift.

The benchmark runs on a shared host.  The same pass of the same scenario
varies by about 15% between quartiles within a minute, and by more from
one minute to the next, as other tenants come and go.  A host-time
figure from one run therefore says as much about the host as about the
program.

So every timed pass is bracketed by two timings of
:func:`reference_loop`, a small event-driven workload of the same kind
as the simulator (a heap of timed events, slotted objects, a spatial
grid of dict-of-lists, float geometry).  The loop imports nothing from
the program, so a change to the program moves only the numerator.  The
benchmark reports host time in units of this loop, ``ref``: a pass's
host seconds divided by the mean of the two timings around it.  The same
passes in raw seconds are printed too, and the traced run reports the
loop's own time as ``calibration.ref_s``.
"""

from __future__ import annotations

import concurrent.futures
import gc
import heapq
import math
import multiprocessing
import random
import statistics
import time
from typing import Dict, List, Tuple

#: the reference loop's result; anything else means it did other work
REFERENCE_RESULT = 5540879

_SIDE = 1000.0
_RANGE = 80.0
_POINTS = 1200
_EVENTS = 12000


class _Point:
    __slots__ = ("x", "y", "heard", "last")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y
        self.heard = 0
        self.last = (-1, 0.0)

    def distance(self, other: "_Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def reference_loop() -> int:
    """A deterministic toy broadcast simulation; returns its checksum."""
    rng = random.Random(20051)
    points = [_Point(rng.uniform(0.0, _SIDE), rng.uniform(0.0, _SIDE)) for _ in range(_POINTS)]
    cells: Dict[Tuple[int, int], List[int]] = {}
    for index, point in enumerate(points):
        cells.setdefault((int(point.x // _RANGE), int(point.y // _RANGE)), []).append(index)
    events = [(0.01 * index, index) for index in range(_POINTS)]
    heapq.heapify(events)
    checksum = 0
    for _ in range(_EVENTS):
        when, index = heapq.heappop(events)
        sender = points[index]
        cx, cy = int(sender.x // _RANGE), int(sender.y // _RANGE)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in cells.get((cx + dx, cy + dy), ()):
                    receiver = points[other]
                    if other != index and sender.distance(receiver) <= _RANGE:
                        receiver.heard += 1
                        receiver.last = (index, when)
        checksum += sender.heard + sender.last[0]
        sender.heard = 0
        heapq.heappush(events, (when + 0.5 + (index % 7) * 0.1, index))
    return checksum


def time_loop(runs: int) -> float:
    """The median host seconds of ``runs`` back-to-back runs of the loop.

    The loop creates no reference cycles, so the cyclic collector is off
    while it runs: how much garbage the program left behind must not
    change its time.
    """
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    times = []
    try:
        for _ in range(runs):
            started = time.perf_counter()
            result = reference_loop()
            times.append(time.perf_counter() - started)
            if result != REFERENCE_RESULT:
                raise RuntimeError(
                    f"the reference loop returned {result}, not {REFERENCE_RESULT}")
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


class Calibrator:
    """Times the reference loop and keeps every timing of one run.

    A timing runs the loop ``runs`` times back to back in each of
    ``processes`` processes at once and takes the mean of their medians.
    Passes that last many seconds take more runs per timing, so one
    unlucky fraction of a second does not stand for all of them.  A pass
    that keeps two pool workers busy is timed against two loops at once,
    which load the host's cores the way the pass does.
    """

    def __init__(self, runs: int = 1, processes: int = 1) -> None:
        self.runs = runs
        self.processes = processes
        self.samples: List[float] = []

    def sample(self) -> float:
        """Take one timing; its host seconds."""
        if self.processes == 1:
            elapsed = time_loop(self.runs)
        else:
            context = multiprocessing.get_context("fork")
            with concurrent.futures.ProcessPoolExecutor(self.processes, context) as pool:
                elapsed = statistics.mean(pool.map(time_loop, [self.runs] * self.processes))
        self.samples.append(elapsed)
        return elapsed

    def latest(self) -> float:
        """The last timing, or a new one if there is none yet."""
        return self.samples[-1] if self.samples else self.sample()

    def median(self) -> float:
        return statistics.median(self.samples)


def in_refs(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time in units of the reference timings around it."""
    return seconds / ((before + after) / 2.0)
