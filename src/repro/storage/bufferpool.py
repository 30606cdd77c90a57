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
can report both cost and behaviour.  No caller can tell pooled objects
apart, so the pool holds only their count.
"""

from __future__ import annotations


class BufferPool:
    """A fixed-size pool of interchangeable objects, kept as a count."""

    #: modelled cost of taking an object off the free-list
    pooled_acquire_ns: int = 40
    #: modelled cost of a fresh allocation (pool miss / pool disabled)
    alloc_ns: int = 600

    #: objects warm in the pool at initialisation; beyond this the pool
    #: warms up from released objects
    PREFILL_LIMIT = 10_000

    def __init__(self, capacity: int, enabled: bool = True):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        #: pooled objects ready to hand out
        self.available = min(capacity, self.PREFILL_LIMIT) if enabled else 0
        self.hits = 0
        self.misses = 0
        self.returned = 0

    def acquire_bulk(self, count: int) -> int:
        """Take ``count`` objects at once; returns the total modelled cost.

        Used per message (``count=1``) and for per-transaction objects,
        where a batch needs hundreds of acquisitions and the caller only
        cares about the aggregate cost.
        """
        if count <= 0:
            return 0
        if not self.enabled:
            self.misses += count
            return count * self.alloc_ns
        hits = min(count, self.available)
        self.available -= hits
        misses = count - hits
        self.hits += hits
        self.misses += misses
        return hits * self.pooled_acquire_ns + misses * self.alloc_ns

    def release_bulk(self, count: int) -> None:
        """Return ``count`` objects (e.g. after a batch executes); those
        beyond the capacity are dropped."""
        if count <= 0:
            return
        self.returned += count
        if self.enabled:
            self.available = min(self.capacity, self.available + count)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
