"""The discrete-event simulator core.

The :class:`Simulator` orders events by ``(time, sequence)``: the sequence
number breaks ties between events due at the same tick, making runs fully
deterministic — the same program against the same seed produces the same
trace, byte for byte.  Nothing in the kernel reads the wall clock or OS
entropy.

Two structures hold that order.  Events with a positive delay go on a
binary heap of ``(time, sequence, callback, args)`` entries.  Zero-delay
events — a process hop, a queue hand-off, an event trigger — go on a FIFO
*same-tick lane* of ``(callback, args)`` pairs, which skips the heap's
push/pop.  At each tick the loop runs every heap entry due then, then
drains the lane; time advances only once the lane is empty.  That is the
``(time, sequence)`` order exactly: a heap entry due now was scheduled at
an earlier tick than any lane entry, hence carries a smaller sequence, and
lane entries are appended in sequence order.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.sim.process import Process
from repro.sim.rng import DeterministicRNG


class SimulationError(RuntimeError):
    """Raised when a simulation process fails or the kernel is misused."""


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator(seed=7)

        def worker():
            yield Timeout(micros(10))
            ...

        sim.spawn(worker())
        sim.run(until=seconds(1))
    """

    def __init__(self, seed: int = 0):
        self.now: int = 0
        self.rng = DeterministicRNG(seed)
        self._heap: list = []
        #: zero-delay events due at ``now``, in scheduling order
        self._lane: deque = deque()
        self._sequence = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ticks from now."""
        if delay == 0:
            self._lane.append((fn, args))
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._sequence += 1
        heappush(self._heap, (self.now + int(delay), self._sequence, fn, args))

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator; it begins running at the
        current simulation time (after already-queued events for this tick)."""
        process = Process(self, generator, name=name)
        self.schedule(0, process.resume, None)
        return process

    def stop(self) -> None:
        """Halt the simulation after the current event completes."""
        self._stopped = True

    def _spill_lane(self) -> None:
        """Move the lane's entries onto the heap at the current tick, in
        order and behind every heap entry already due now.  Used when the
        clock is about to move with the lane non-empty (a stopped run) or
        the heap holds entries older than ``now``; both are rare."""
        lane = self._lane
        heap = self._heap
        now = self.now
        while lane:
            fn, args = lane.popleft()
            self._sequence += 1
            heappush(heap, (now, self._sequence, fn, args))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run events in time order.

        With ``until`` set, runs until the clock would pass ``until`` ticks
        (the clock is then left exactly at ``until``).  Without it, runs
        until no events remain.  Returns the final clock value.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run backwards (until={until}, now={self.now})"
            )
        self._stopped = False
        heap = self._heap
        lane = self._lane
        if lane and heap and heap[0][0] < self.now:
            self._spill_lane()
        popleft = lane.popleft
        now = self.now
        while True:
            # heap entries due now were scheduled at an earlier tick than
            # any lane entry, so they run first
            while heap and heap[0][0] == now:
                _when, _seq, fn, args = heappop(heap)
                fn(*args)
                if self._stopped:
                    return self._halt(until)
            # zero-delay events in scheduling order; none of them can put a
            # heap entry at ``now``, so time may advance once this is empty
            while lane:
                fn, args = popleft()
                fn(*args)
                if self._stopped:
                    return self._halt(until)
            if not heap:
                break
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return until
            now = self.now = when
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def _halt(self, until: Optional[int]) -> int:
        """Leave a stopped run: the rest of the lane stays behind this
        tick even if the clock then jumps to ``until``."""
        self._spill_lane()
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def peek(self) -> Optional[int]:
        """Time of the next pending event, or None if nothing is pending."""
        heap = self._heap
        if self._lane and not (heap and heap[0][0] < self.now):
            return self.now
        return heap[0][0] if heap else None

    @property
    def pending_events(self) -> int:
        return len(self._heap) + len(self._lane)
