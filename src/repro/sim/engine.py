"""The discrete-event simulation environment.

Time is a float; by convention throughout this project it is measured in
**milliseconds** of simulated wall-clock time.  The environment is fully
deterministic: events scheduled for the same instant are processed in
insertion order, so a run with the same seeds always produces the same
history.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, List, Optional, Tuple

from .events import Event, Process, SimulationError, Timeout
from .probe import Probe

__all__ = ["Environment"]


class Environment:
    """Execution environment for a single simulation run.

    ``__slots__`` keeps the per-step attribute traffic (``_now``,
    ``_queue``, ``events_processed``, the ``probe`` reads) on the fast
    path; the slot list is the complete attribute surface of an
    environment.
    """

    __slots__ = (
        "_now",
        "_swept",
        "_queue",
        "_eid",
        "_active_process",
        "probe",
        "events_processed",
        "topology_epoch",
    )

    def __init__(self):
        self._now = 0.0
        # The latest time of a tombstone popped (see ``horizon``).
        self._swept = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: the run's always-on counters and record stream.
        self.probe = Probe(self)
        self.events_processed = 0
        #: bumped by every hardware up/down transition, so caches derived
        #: from the topology (the network's routes) can tell they are stale.
        self.topology_epoch = 0

    @property
    def now(self) -> float:
        """Current simulated time (milliseconds)."""
        return self._now

    @property
    def horizon(self) -> float:
        """The latest time of a queue entry popped, tombstone or live:
        an entry queued at a later time has not been popped.

        A tombstone (an event processed already, or disarmed) moves no
        clock, so a run to exhaustion ends ``now`` at its last live
        event while its trailing tombstones take ``horizon`` past it.
        """
        return max(self._now, self._swept)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # ------------------------------------------------------------------
    # Event creation helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "",
                inline: bool = False) -> Process:
        return Process(self, generator, name=name, inline=inline)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue ``event`` for processing ``delay`` time units from now."""
        self._eid += 1
        heappush(self._queue, (self._now + delay, self._eid, event))

    def reserve_seq(self) -> int:
        """Claim the insertion-order number the next event would take.

        Together with :meth:`schedule_at` this lets a caller defer the
        decision to queue an event without moving it in the tie order:
        an event pushed later with the reserved number pops exactly
        where a :class:`Timeout` created now would have.
        """
        self._eid += 1
        return self._eid

    def schedule_at(self, event: Event, when: float, seq: int) -> None:
        """Queue ``event`` at time ``when`` under a reserved ``seq``.

        ``when`` must not be in the past, and ``seq`` must come from
        :meth:`reserve_seq` and be queued at most once at a time.
        """
        heappush(self._queue, (when, seq, event))

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        triggers, returning its value or raising its exception).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})"
                )

        # The loop binds the queue once and processes each event inline:
        # at tens of thousands of iterations per run the attribute
        # lookups and a per-event call are measurable.
        queue = self._queue
        while True:
            if stop_event is not None and stop_event.callbacks is None:
                if stop_event.ok:
                    return stop_event.value
                stop_event.defused = True
                raise stop_event.value
            if not queue:
                if stop_event is not None:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        f"event {stop_event!r} triggered"
                    )
                if stop_time != float("inf"):
                    self._now = stop_time
                break
            if queue[0][0] > stop_time:
                self._now = stop_time
                break
            when, _, event = heappop(queue)
            callbacks = event.callbacks
            if callbacks is None:
                # A tombstone: processed already, or disarmed.
                if when > self._swept:
                    self._swept = when
                continue
            self._now = when
            self.events_processed += 1
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event.defused:
                raise event._value
        return None
