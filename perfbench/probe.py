"""Machine-speed probe for host-time metrics on a shared host.

Other tenants on the host slow the interpreter by tens of percent, mostly
through contention for caches and memory, and the slowdown changes within
seconds, so raw host time per transaction drifts between runs of
identical work.  :class:`SpeedProbe` times a fixed pure-Python loop
(heap, dict and RNG work plus a pointer chase through a table larger than
the per-core caches, sharing no code with the program) between simulated
events throughout the measurement window; host times are then scaled by
how fast the probe ran at the same moments.  A faster program still reads
faster: the probe's work is fixed, and when it runs depends only on host
time elapsed.
"""

from __future__ import annotations

import functools
import heapq
import random
import time

#: the probe time scaled host metrics are expressed at (the probe takes
#: about this long on a 2-vCPU Intel Xeon host)
PROBE_NOMINAL_S = 0.008
#: host time between probes; frequent probes track fast-changing load
PROBE_EVERY_S = 0.06
#: simulated ticks between checks whether a probe is due (250 µs)
PROBE_TICK = 250_000
_HEAP_STEPS = 3_000
_CHASE_STEPS = 30_000


@functools.lru_cache(maxsize=1)
def chase_table() -> list:
    """A random cyclic permutation of 2^18 slots (~10 MB of list and int
    objects).  Built once per process; call before timing anything."""
    order = list(range(1 << 18))
    random.Random(7).shuffle(order)
    table = [0] * len(order)
    for here, there in zip(order, order[1:] + order[:1]):
        table[here] = there
    return table


def probe_once() -> float:
    """Host seconds for one fixed probe loop."""
    table = chase_table()
    started = time.perf_counter()
    heap, slots = [], {}
    rng = random.Random(1)
    for i in range(_HEAP_STEPS):
        heapq.heappush(heap, (rng.random(), i))
        slots[i % 1000] = i
        if len(heap) > 1000:
            heapq.heappop(heap)
    at = 0
    for _ in range(_CHASE_STEPS):
        at = table[at]
    return time.perf_counter() - started


class SpeedProbe:
    """Probes every ``PROBE_EVERY_S`` of host time until simulated time
    ``until``, from a callback on the simulator's clock.  The callback only
    reads the host clock, so the modelled system is unaffected."""

    def __init__(self, sim, until: int):
        self.sim = sim
        self.until = until
        self.total_s = probe_once()
        self.count = 1
        self._due = time.perf_counter() + PROBE_EVERY_S
        sim.schedule(PROBE_TICK, self._tick)

    def _tick(self) -> None:
        if time.perf_counter() >= self._due:
            self.total_s += probe_once()
            self.count += 1
            self._due = time.perf_counter() + PROBE_EVERY_S
        if self.sim.now + PROBE_TICK <= self.until:
            self.sim.schedule(PROBE_TICK, self._tick)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count
