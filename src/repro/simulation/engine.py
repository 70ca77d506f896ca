"""Discrete-event simulation engine.

A minimal but complete event-driven kernel: the binary heap holds
``(time, priority, sequence, event)`` tuples -- the shape SimPy's kernel
uses -- so pushes and pops compare plain tuples, and the unique sequence
number settles every tie before the :class:`Event` handle is reached.
The simulator pops them in time order and advances a virtual clock.
Periodic timers are provided as a convenience for protocol beaconing and
mobility epochs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass(slots=True, eq=False)
class Event:
    """Handle to one scheduled callback.

    Ordering lives in the heap entry ``(time, priority, sequence, event)``:
    simultaneous events run in a deterministic order (lower priority
    value first, then FIFO).  The handle only carries the callback and
    the flag :meth:`cancel` sets.
    """

    callback: Callable[[], None]
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap but is skipped)."""
        self.cancelled = True


class Simulator:
    """Event-driven simulation kernel with a floating-point clock (seconds)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._running = False
        self._processed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        event = Event(callback)
        entry = (self._now + delay, priority, next(self._sequence), event)
        heapq.heappush(self._heap, entry)
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now ({self._now})")
        event = Event(callback)
        heapq.heappush(self._heap, (time, priority, next(self._sequence), event))
        return event

    def run_until(self, end_time: float) -> None:
        """Run events until the clock would pass ``end_time``.

        The clock is left at ``end_time`` even if the heap drains earlier,
        so back-to-back ``run_until`` calls compose naturally.
        """
        if end_time < self._now:
            raise ValueError(f"end_time {end_time} is in the past (now={self._now})")
        heap = self._heap
        pop = heapq.heappop
        self._running = True
        while heap and self._running:
            if heap[0][0] > end_time:
                break
            time, _, _, event = pop(heap)
            if event.cancelled:
                continue
            self._now = time
            event.callback()
            self._processed += 1
        self._now = max(self._now, end_time)
        self._running = False

    def run(self, duration: float) -> None:
        """Run for ``duration`` simulated seconds from the current time."""
        self.run_until(self._now + duration)

    def stop(self) -> None:
        """Stop a running :meth:`run_until` after the current event returns."""
        self._running = False

    def drain(self, max_events: Optional[int] = None) -> int:
        """Run every queued event regardless of time; returns events executed.

        Mainly useful in unit tests that want to flush all pending work.
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            time, _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = max(self._now, time)
            event.callback()
            executed += 1
            self._processed += 1
        return executed


class PeriodicTimer:
    """Repeatedly invokes a callback every ``period`` seconds.

    The first invocation happens after ``initial_delay`` (default: one full
    period, optionally jittered to de-synchronise many nodes' beacons).
    """

    def __init__(
        self,
        simulator: Simulator,
        period: float,
        callback: Callable[[], None],
        initial_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
        priority: int = 0,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if jitter > 0 and rng is None:
            raise ValueError("rng required when jitter > 0")
        self._simulator = simulator
        self.period = period
        self.callback = callback
        self.jitter = jitter
        self._rng = rng
        self._priority = priority
        self._stopped = False
        self._event: Optional[Event] = None
        first = period if initial_delay is None else initial_delay
        first += self._draw_jitter()
        self._event = simulator.schedule(first, self._fire, priority)

    def _draw_jitter(self) -> float:
        if self.jitter > 0:
            return self._rng.uniform(0.0, self.jitter)
        return 0.0

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            self._event = self._simulator.schedule(
                self.period + self._draw_jitter(), self._fire, self._priority
            )

    def stop(self) -> None:
        """Stop the timer; no further invocations will occur."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped
