"""FIFO channels connecting pipeline stages.

:class:`SimQueue` is the simulated analogue of the lock-free queues that
ResilientDB places between its pipeline threads.  The paper's design uses a
*common* work queue shared by several batch-threads so that "any enqueued
request is consumed as soon as any batch-thread is available" (§4.3) —
``SimQueue`` supports exactly that: multiple consumers blocked in
``get()`` are served in FIFO order as items arrive.

Bounded queues carry a back-pressure *policy* deciding what happens when a
producer hits the capacity limit, and :meth:`SimQueue.offer` is the one
producer call that applies it:

- ``"block"`` — the producer parks until the consumer frees capacity
  (``offer(item, producer)``); pressure propagates upstream.
- ``"shed_oldest"`` — the oldest queued item is evicted to make room
  (drop-from-head, so the accepted item still joins FIFO order at the
  tail); the ``on_shed`` callback lets the owner NACK or count the victim.
- ``"reject"`` — the new item is refused (``offer`` returns False); the
  producer decides what to tell the sender.

Queues track occupancy statistics so experiments can report queueing delay
(the dominant latency term in the client-scaling experiment, Fig. 15).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.sim.events import TIMEOUT

#: back-pressure policies a bounded queue can apply at capacity
QUEUE_POLICIES = ("block", "shed_oldest", "reject")


class _Getter:
    """A parked consumer; ``active`` is cleared if its timeout fires first."""

    __slots__ = ("process", "active")

    def __init__(self, process):
        self.process = process
        self.active = True


class _QueueGet:
    """Effect: wait until an item is available, resume with the item.

    With ``timeout`` set, resume with :data:`repro.sim.events.TIMEOUT`
    instead if nothing arrives within that many ticks.
    """

    __slots__ = ("queue", "timeout")

    def __init__(self, queue: "SimQueue", timeout: Optional[int] = None):
        self.queue = queue
        self.timeout = timeout

    def _bind(self, sim, process) -> None:
        queue = self.queue
        if queue._items:
            item = queue._take(sim)
            if queue._putters:
                queue._wake_putters(sim)
            sim.schedule(0, process.resume, item)
            return
        getter = _Getter(process)
        queue._getters.append(getter)
        if self.timeout is not None:

            def _expire() -> None:
                if getter.active:
                    getter.active = False
                    process.resume(TIMEOUT)

            sim.schedule(self.timeout, _expire)


class SimQueue:
    """An (optionally bounded) FIFO queue usable from simulation processes.

    - ``yield queue.get()`` blocks the process until an item arrives.
    - ``queue.put_nowait(item)`` enqueues immediately (raises if a bounded
      queue is full).
    - ``queue.offer(item, producer)`` applies the policy at capacity:
      ``shed_oldest`` evicts and accepts, ``reject`` refuses, ``block``
      parks ``producer`` until capacity frees and then resumes it with
      True (back-pressure).
    """

    __slots__ = (
        "sim",
        "name",
        "capacity",
        "policy",
        "on_shed",
        "_items",
        "_getters",
        "_putters",
        "enqueued_total",
        "dequeued_total",
        "shed_total",
        "rejected_total",
        "max_depth",
        "total_wait",
    )

    def __init__(
        self,
        sim,
        name: str = "queue",
        capacity: Optional[int] = None,
        policy: str = "block",
        on_shed: Optional[Callable[[Any], None]] = None,
    ):
        if policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue policy {policy!r}; expected one of {QUEUE_POLICIES}"
            )
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.policy = policy
        #: called with each evicted item when ``shed_oldest`` fires
        self.on_shed = on_shed
        self._items: Deque = deque()
        self._getters: Deque = deque()
        self._putters: Deque = deque()
        self.enqueued_total = 0
        self.dequeued_total = 0
        self.shed_total = 0
        self.rejected_total = 0
        self.max_depth = 0
        self.total_wait = 0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def put_nowait(self, item: Any) -> None:
        """Enqueue without blocking (raises if a bounded queue is full)."""
        if self.full():
            raise OverflowError(f"queue {self.name!r} full (capacity={self.capacity})")
        self._enqueue(self.sim, item)

    def offer(self, item: Any, producer=None) -> Optional[bool]:
        """Policy-aware enqueue: True if the item got in, False if
        ``reject`` refused it, None if a full ``block`` queue parked
        ``producer`` (anything with ``resume(value)``; it is resumed with
        True once the item gets in).  With no producer a full ``block``
        queue raises, as :meth:`put_nowait` does."""
        if not self.full():
            self._enqueue(self.sim, item)
            return True
        if self.policy == "shed_oldest":
            self._shed()
            self._enqueue(self.sim, item)
            return True
        if self.policy == "reject":
            self.rejected_total += 1
            return False
        if producer is None:
            raise OverflowError(
                f"queue {self.name!r} full (capacity={self.capacity})"
            )
        self._putters.append((producer, item))
        return None

    def full(self) -> bool:
        """Whether the queue is at its capacity bound."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def _shed(self) -> Any:
        """Evict the oldest queued item to make room."""
        victim, _enqueued_at = self._items.popleft()
        self.shed_total += 1
        if self.on_shed is not None:
            self.on_shed(victim)
        return victim

    def _enqueue(self, sim, item: Any) -> None:
        self.enqueued_total += 1
        getter = self._pop_active_getter() if self._getters else None
        if getter is not None:
            self._record_dequeue(0)
            sim.schedule(0, getter.process.resume, item)
        else:
            self._items.append((item, sim.now))
            if len(self._items) > self.max_depth:
                self.max_depth = len(self._items)

    def _pop_active_getter(self):
        while self._getters:
            getter = self._getters.popleft()
            if getter.active:
                getter.active = False
                return getter
        return None

    def _wake_putters(self, sim) -> None:
        while self._putters and not self.full():
            producer, item = self._putters.popleft()
            self._enqueue(sim, item)
            sim.schedule(0, producer.resume, True)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def get(self, timeout: Optional[int] = None) -> _QueueGet:
        """Effect for blocking gets; with ``timeout``, the waiter is
        resumed with :data:`~repro.sim.events.TIMEOUT` if nothing arrives
        in time (used by batch-threads' fill deadline)."""
        return _QueueGet(self, timeout)

    def get_nowait(self) -> Any:
        """Dequeue immediately; raises IndexError when empty."""
        item = self._take(self.sim)
        self._wake_putters(self.sim)
        return item

    def _take(self, sim) -> Any:
        """Remove and return the next item, recording its queueing delay."""
        item, enq_time = self._items.popleft()
        self._record_dequeue(sim.now - enq_time)
        return item

    def _record_dequeue(self, wait: int) -> None:
        self.dequeued_total += 1
        self.total_wait += wait

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        """Current occupancy (items enqueued and not yet consumed)."""
        return len(self._items)

    @property
    def waiters(self) -> int:
        """Consumers currently parked in ``get()``."""
        return sum(1 for getter in self._getters if getter.active)

    @property
    def blocked_producers(self) -> int:
        """Producers currently parked by ``offer()`` (``block`` policy)."""
        return len(self._putters)

    @property
    def mean_wait(self) -> float:
        """Mean ticks an item spent queued before being consumed."""
        return self.total_wait / self.dequeued_total if self.dequeued_total else 0.0

    def stats(self) -> dict:
        """Occupancy snapshot for samplers and reports."""
        return {
            "depth": len(self._items),
            "enqueued": self.enqueued_total,
            "dequeued": self.dequeued_total,
            "shed": self.shed_total,
            "rejected": self.rejected_total,
            "max_depth": self.max_depth,
            "mean_wait": self.mean_wait,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimQueue({self.name!r}, depth={len(self._items)})"


class SimPriorityQueue(SimQueue):
    """An unbounded SimQueue that serves lower-priority-number items first.

    Ties preserve insertion order, so same-priority traffic stays FIFO.
    Used for the worker's queue: in the degenerate 0B pipeline one worker
    both batches client requests (priority 1) and votes (priority 0), and
    protocol messages must not drown behind a deep backlog of unverified
    client requests, or the replica never commits anything.  It has no
    capacity: shedding a commit vote would break consensus liveness.
    """

    __slots__ = ("_counter",)

    def __init__(self, sim, name: str = "pqueue"):
        super().__init__(sim, name)
        self._items = []  # heap of (priority, tie, item, enqueued_at)
        self._counter = 0

    def put_nowait(self, item: Any, priority: int = 0) -> None:
        self._enqueue(self.sim, item, priority)

    def _enqueue(self, sim, item: Any, priority: int = 0) -> None:
        # both producer paths (put_nowait, and the inherited offer) land
        # here, so the heap order holds whichever one is used
        self.enqueued_total += 1
        getter = self._pop_active_getter() if self._getters else None
        if getter is not None:
            self._record_dequeue(0)
            sim.schedule(0, getter.process.resume, item)
            return
        self._counter += 1
        heapq.heappush(self._items, (priority, self._counter, item, sim.now))
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def _take(self, sim) -> Any:
        _priority, _tie, item, enqueued_at = heapq.heappop(self._items)
        self._record_dequeue(sim.now - enqueued_at)
        return item
