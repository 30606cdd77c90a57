"""Deterministic discrete-event simulation (DES) kernel.

This package is the substrate on which the whole reproduction runs.  Real
threads in Python cannot exhibit the behaviour the paper measures (the GIL
serialises CPU-bound pipeline stages), so replicas, their pipeline threads
and clients are modelled as coroutine *processes*, and the network's NICs and
the replicas' input and output threads as plain kernel callbacks, all
scheduled on a simulated clock.  Simulated threads compete for simulated CPU
cores, which is what lets the thread-saturation and core-count experiments
(Figures 9 and 16 of the paper) reproduce on any host machine.

Events run in ``(time, sequence)`` order.  Delayed events sit on a binary
heap; zero-delay events (process hops, queue hand-offs, triggers) go on a
FIFO *same-tick lane* that the loop drains after the heap entries due at
the current tick, advancing time only once the lane is empty.  That is the
same order: a heap entry due now was scheduled at an earlier tick than any
lane entry, so its sequence number is smaller, and the lane holds its
entries in sequence order.

Public surface:

- :class:`~repro.sim.kernel.Simulator` — the event loop.
- :class:`~repro.sim.process.Process` and the effect objects processes yield
  (:class:`~repro.sim.events.Timeout`, :class:`~repro.sim.events.SimEvent`);
  :class:`~repro.sim.process.Continuation` binds the same effects to a
  callback for hot, fixed-shape threads.
- :class:`~repro.sim.queues.SimQueue` — FIFO channels between stages;
  ``offer(item, producer)`` applies a bounded queue's back-pressure
  policy.
- :class:`~repro.sim.resources.CpuScheduler` — simulated multi-core CPU with
  per-thread busy-time accounting.
- :mod:`~repro.sim.clock` — time-unit helpers (the clock is integer
  nanoseconds).
- :class:`~repro.sim.metrics.MetricsRegistry` — counters and histograms
  with warmup-window resets.
"""

from repro.sim.clock import micros, millis, nanos, seconds, to_seconds
from repro.sim.events import SimEvent, Timeout, TIMEOUT
from repro.sim.kernel import Simulator
from repro.sim.metrics import Counter, LatencyHistogram, MetricsRegistry
from repro.sim.process import Continuation, Process
from repro.sim.queues import SimQueue
from repro.sim.resources import CpuScheduler
from repro.sim.rng import DeterministicRNG

__all__ = [
    "Continuation",
    "Counter",
    "CpuScheduler",
    "DeterministicRNG",
    "LatencyHistogram",
    "MetricsRegistry",
    "Process",
    "SimEvent",
    "SimQueue",
    "Simulator",
    "TIMEOUT",
    "Timeout",
    "micros",
    "millis",
    "nanos",
    "seconds",
    "to_seconds",
]
