"""Minimal discrete-event loop."""

from __future__ import annotations

import heapq
from typing import Callable

from ..errors import HadoopError


class EventLoop:
    """Time-ordered callback queue, fully deterministic.

    Events dispatch in ``(when, scheduled_at, seq)`` order:
    ``scheduled_at`` is the simulated time the event was put on the
    queue and ``seq`` the insertion order. An event scheduled the
    ordinary way carries ``scheduled_at = now``, and since ``now`` never
    decreases that is plain FIFO on ties. The middle key exists for
    events materialized late: ``schedule_at(..., scheduled_at=t)`` queues
    an event exactly where it would have sorted had it been scheduled at
    ``t`` (the simulator's parked heartbeats, ``hadoop/simulate.py``).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, float, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0
        #: ``scheduled_at`` of the event being dispatched.
        self.scheduled_at = 0.0
        #: Events dispatched so far, over every ``run`` call.
        self.dispatched = 0
        self._running = False

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise HadoopError(f"cannot schedule in the past (delay={delay})")
        now = self.now
        heapq.heappush(self._heap, (now + delay, now, self._seq, fn))
        self._seq += 1

    def schedule_at(self, when: float, fn: Callable[[], None],
                    scheduled_at: float | None = None) -> None:
        if when < self.now:
            raise HadoopError(f"cannot schedule at {when} < now {self.now}")
        if scheduled_at is None:
            scheduled_at = self.now
        heapq.heappush(self._heap, (when, scheduled_at, self._seq, fn))
        self._seq += 1

    def run(self, max_events: int = 20_000_000) -> None:
        """Drain the queue."""
        if self._running:
            raise HadoopError("event loop is not reentrant")
        self._running = True
        # Hoisting the attribute lookups out of the hot loop is worth
        # ~15% wall time.
        heap = self._heap
        pop = heapq.heappop
        events = 0
        try:
            while heap:
                self.now, self.scheduled_at, _seq, fn = pop(heap)
                fn()
                events += 1
                if events > max_events:
                    raise HadoopError(
                        f"event budget exhausted ({max_events}); livelock?"
                    )
        finally:
            self.dispatched += events
            self._running = False
