"""Effect objects that simulation processes yield to the kernel.

A process is a Python generator.  Each ``yield`` hands the kernel an
*effect* describing what the process is waiting for.  The kernel resumes
the process (via ``generator.send(value)``) when the effect completes.

Supported effects:

- ``Timeout(delay)`` or a bare ``int`` — resume after ``delay`` ticks.
- ``SimEvent`` — resume when the event is triggered; the trigger value is
  the result of the ``yield``.
- ``SimQueue.get()`` — see :mod:`repro.sim.queues`.
- ``CpuScheduler.run(cost, thread_id)`` — see :mod:`repro.sim.resources`.
"""

from __future__ import annotations

from typing import Any, List


class _TimeoutSentinel:
    """Unique marker delivered when an event is triggered by a timer."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<TIMEOUT>"


#: Sentinel value a timed wait resumes with when its timer fires before a
#: real completion (see ``SimQueue.get(timeout=...)``).
TIMEOUT = _TimeoutSentinel()


class Timeout:
    """Effect: suspend the yielding process for ``delay`` clock ticks."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.delay = int(delay)

    def _bind(self, sim, process) -> None:
        sim.schedule(self.delay, process.resume, None)


class SimEvent:
    """A one-shot event that processes can wait on.

    The first call to :meth:`trigger` resumes every waiter with the trigger
    value; later triggers are ignored (this makes race patterns such as
    "response arrives" vs. "client timer fires" easy to express — whichever
    happens first wins, the loser is a no-op).
    """

    __slots__ = ("sim", "_waiters", "triggered", "value")

    def __init__(self, sim):
        self.sim = sim
        self._waiters: List[Any] = []
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> bool:
        """Fire the event, resuming all waiters.  Returns False if already
        fired (in which case nothing happens)."""
        if self.triggered:
            return False
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim.schedule(0, process.resume, value)
        return True

    def _bind(self, sim, process) -> None:
        if self.triggered:
            sim.schedule(0, process.resume, self.value)
        else:
            self._waiters.append(process)


class Timer:
    """A cancellable one-shot timer.

    ``Timer(sim, delay, fn, *args)`` schedules ``fn(*args)`` after ``delay``
    ticks; :meth:`cancel` before expiry suppresses the call.  Used for
    protocol retransmission/view-change timers.
    """

    __slots__ = ("_cancelled", "_fired")

    def __init__(self, sim, delay: int, fn, *args):
        self._cancelled = False
        self._fired = False

        def _fire() -> None:
            if not self._cancelled:
                self._fired = True
                fn(*args)

        sim.schedule(delay, _fire)

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def active(self) -> bool:
        return not (self._cancelled or self._fired)
