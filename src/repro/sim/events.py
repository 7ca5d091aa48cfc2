"""Minimal discrete-event simulation core.

The paper's query metrics are deterministic counts, but its *dynamic*
behaviour — node joins/departures/failures, the periodic stabilization
protocol, runtime load balancing — unfolds over time.  This module provides
the event queue those processes run on: a classic calendar with
``schedule(delay, fn)`` / ``run_until(t)`` semantics and deterministic
tie-breaking (FIFO among simultaneous events).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError

__all__ = ["Event", "Simulator"]


@dataclass(frozen=True, order=True)
class Event:
    """A scheduled callback; ordering is (time, sequence number)."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(compare=False, default=False, hash=False)


class Simulator:
    """Deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._cancelled: set[int] = set()
        self.events_executed = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(time=self.now + delay, seq=next(self._seq), action=action)
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (lazy deletion)."""
        self._cancelled.add(event.seq)

    def schedule_periodic(
        self,
        interval: float,
        action: Callable[[], None],
        *,
        start: float | None = None,
        jitter: Callable[[], float] | None = None,
    ) -> Callable[[], None]:
        """Run ``action`` every ``interval`` units; returns a stop function.

        ``jitter`` (a zero-arg callable) is added to each period to model
        desynchronized timers across peers.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        stopped = False

        def tick() -> None:
            if stopped:
                return
            action()
            delay = interval + (jitter() if jitter else 0.0)
            self.schedule(max(delay, 1e-9), tick)

        first = interval if start is None else start
        self.schedule(max(first, 0.0), tick)

        def stop() -> None:
            nonlocal stopped
            stopped = True

        return stop

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.seq in self._cancelled:
                self._cancelled.discard(event.seq)
                continue
            self.now = event.time
            event.action()
            self.events_executed += 1
            return True
        return False

    def run_until(self, time: float) -> int:
        """Run all events up to and including ``time``; returns count run."""
        if time < self.now:
            raise SimulationError("cannot run backwards in time")
        executed = 0
        while self._queue:
            head = self._queue[0]
            if head.seq in self._cancelled:
                heapq.heappop(self._queue)
                self._cancelled.discard(head.seq)
                continue
            if head.time > time:
                break
            self.step()
            executed += 1
        self.now = max(self.now, time)
        return executed

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the queue (bounded by ``max_events`` as a runaway guard)."""
        executed = 0
        while executed < max_events and self.step():
            executed += 1
        if self._queue and executed >= max_events:
            raise SimulationError(f"exceeded {max_events} events; runaway process?")
        return executed

    @property
    def pending(self) -> int:
        """Number of events still queued (including lazily cancelled ones)."""
        return len(self._queue)
