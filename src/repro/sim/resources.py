"""The simulated CPU.

:class:`CpuScheduler` is central to the reproduction.  The paper deploys
replicas on 1/2/4/8-core machines and studies how pipeline threads saturate
(Figures 9 and 16).  Here each replica owns a ``CpuScheduler`` with ``N``
core slots; every unit of work a simulated thread performs must occupy a
core slot for the work's duration.  When more threads are runnable than
cores exist, work serialises exactly as it would under an OS scheduler, and
per-thread busy time gives the saturation metric the paper plots.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional


class _CpuRun:
    """Effect: occupy a core for ``cost`` ticks on behalf of ``thread_id``."""

    __slots__ = ("cpu", "cost", "thread_id")

    def __init__(self, cpu: "CpuScheduler", cost: int, thread_id: str):
        self.cpu = cpu
        self.cost = cost
        self.thread_id = thread_id

    def _bind(self, sim, process) -> None:
        cpu = self.cpu
        if self.cost == 0:
            sim.schedule(0, process.resume, None)
        elif cpu.busy_cores < cpu.cores:
            cpu._start(process, self.cost, self.thread_id)
        else:
            cpu._waiting.append((process, self.cost, self.thread_id))


class CpuScheduler:
    """A work-conserving simulated multi-core CPU.

    Simulated threads call ``yield cpu.run(cost, thread_id)`` for every unit
    of computation.  The scheduler grants free cores FIFO; a thread whose
    work is running is off the ready queue until the work completes (work
    units are not preempted — they model short, bounded tasks such as
    "verify one signature" or "assemble one batch", so FIFO granting
    approximates an OS timeslice scheduler closely at this granularity).

    Busy nanoseconds are accumulated per ``thread_id`` so saturation
    (busy / window) can be reported per pipeline stage, which is exactly the
    quantity Figure 9 of the paper plots.
    """

    __slots__ = ("sim", "cores", "busy_cores", "_waiting", "busy_ns", "_window_start")

    def __init__(self, sim, cores: int):
        if cores < 1:
            raise ValueError(f"core count must be >= 1, got {cores}")
        self.sim = sim
        self.cores = cores
        self.busy_cores = 0
        self._waiting: Deque = deque()
        self.busy_ns: Dict[str, int] = {}
        self._window_start = 0

    def run(self, cost: int, thread_id: str) -> _CpuRun:
        """Effect: charge ``cost`` ticks of CPU to ``thread_id``."""
        if cost < 0:
            raise ValueError(f"cpu cost must be >= 0, got {cost}")
        return _CpuRun(self, int(cost), thread_id)

    def _start(self, process, cost: int, thread_id: str) -> None:
        self.busy_cores += 1
        busy_ns = self.busy_ns
        busy_ns[thread_id] = busy_ns.get(thread_id, 0) + cost
        self.sim.schedule(cost, self._complete, process)

    def _complete(self, process) -> None:
        self.busy_cores -= 1
        if self._waiting:
            self._start(*self._waiting.popleft())
        process.resume(None)

    # ------------------------------------------------------------------
    # measurement-window support
    # ------------------------------------------------------------------
    def reset_window(self) -> None:
        """Zero the busy-time accounting (called when warmup ends)."""
        self.busy_ns = {}
        self._window_start = self.sim.now

    def saturation(self, thread_id: str, window_end: Optional[int] = None) -> float:
        """Fraction of the measurement window ``thread_id`` spent on-core.

        1.0 means the stage is fully saturated (the bottleneck); the paper's
        Figure 9 reports this as a percentage.
        """
        end = self.sim.now if window_end is None else window_end
        window = end - self._window_start
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_ns.get(thread_id, 0) / window)

    def saturations(self) -> Dict[str, float]:
        """Saturation of every thread observed during the window."""
        return {tid: self.saturation(tid) for tid in sorted(self.busy_ns)}
