"""Buffer pools for message and transaction objects.

§4.8: "to avoid such frequent allocations and de-allocations, we adopt the
standard practice of maintaining a set of buffer pools … instead of doing a
malloc, these objects are extracted from their respective pools and are
placed back in the pool during the free operation."

In Python there is no malloc to save, so the pool's effect is expressed in
the cost model: acquiring a pooled object charges ``pooled_acquire_ns``,
while a pool miss (or a disabled pool) charges ``alloc_ns`` — calibrated to
a jemalloc-class allocation plus constructor work.  The pool keeps real
hit/miss statistics so the ablation bench (``test_ablation_bufferpool``)
can report both cost and behaviour, but it holds real objects only where a
caller can tell them apart: the ones handed back through ``release()``.
Warm-up objects and bulk returns are interchangeable, so they are a count.
"""

from __future__ import annotations

from typing import Any, Callable, List


class BufferPool:
    """A fixed-size free-list of reusable objects."""

    #: modelled cost of taking an object off the free-list
    pooled_acquire_ns: int = 40
    #: modelled cost of a fresh allocation (pool miss / pool disabled)
    alloc_ns: int = 600

    #: objects warm in the pool at initialisation; beyond this the pool
    #: warms up from released objects
    PREFILL_LIMIT = 10_000

    def __init__(
        self,
        factory: Callable[[], Any],
        capacity: int,
        enabled: bool = True,
    ):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.factory = factory
        self.capacity = capacity
        self.enabled = enabled
        #: pooled objects no caller can tell apart (the warm-up prefill and
        #: bulk returns), kept as a count
        self._spare = min(capacity, self.PREFILL_LIMIT) if enabled else 0
        #: objects handed back through ``release()``, reused first
        self._free: List[Any] = []
        self.hits = 0
        self.misses = 0
        self.returned = 0

    def acquire(self):
        """Take an object; returns ``(obj, cost_ns)``."""
        if self.enabled:
            if self._free:
                self.hits += 1
                return self._free.pop(), self.pooled_acquire_ns
            if self._spare:
                self._spare -= 1
                self.hits += 1
                return self.factory(), self.pooled_acquire_ns
        self.misses += 1
        return self.factory(), self.alloc_ns

    def release(self, obj: Any) -> None:
        """Return an object to the pool (dropped if the pool is full)."""
        self.returned += 1
        if self.enabled and self.available < self.capacity:
            self._free.append(obj)

    def acquire_bulk(self, count: int) -> int:
        """Take ``count`` objects at once; returns the total modelled cost.

        Used for per-transaction objects, where a batch needs hundreds of
        acquisitions and the caller only cares about the aggregate cost.
        """
        if count <= 0:
            return 0
        if not self.enabled:
            self.misses += count
            return count * self.alloc_ns
        hits = min(count, self.available)
        from_spare = min(hits, self._spare)
        self._spare -= from_spare
        if hits > from_spare:
            del self._free[len(self._free) - (hits - from_spare):]
        misses = count - hits
        self.hits += hits
        self.misses += misses
        return hits * self.pooled_acquire_ns + misses * self.alloc_ns

    def release_bulk(self, count: int) -> None:
        """Return ``count`` objects (e.g. after a batch executes)."""
        if count <= 0:
            return
        self.returned += count
        if self.enabled:
            space = self.capacity - self.available
            if space > 0:
                self._spare += min(space, count)

    @property
    def available(self) -> int:
        return self._spare + len(self._free)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
