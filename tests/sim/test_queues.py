"""Tests for SimQueue semantics (FIFO, multi-consumer, back-pressure)."""

import pytest

from repro.sim import Continuation, SimQueue, Simulator, Timeout


def test_put_nowait_then_get():
    sim = Simulator()
    queue = SimQueue(sim, "q")
    seen = []

    def consumer():
        item = yield queue.get()
        seen.append(item)

    queue.put_nowait("x")
    sim.spawn(consumer())
    sim.run()
    assert seen == ["x"]


def test_fifo_ordering():
    sim = Simulator()
    queue = SimQueue(sim, "q")
    seen = []

    def consumer():
        for _ in range(3):
            seen.append((yield queue.get()))

    for item in (1, 2, 3):
        queue.put_nowait(item)
    sim.spawn(consumer())
    sim.run()
    assert seen == [1, 2, 3]


def test_multiple_consumers_share_work_fifo():
    """The paper's common-queue design: any enqueued request is consumed as
    soon as any batch-thread is available (§4.3)."""
    sim = Simulator()
    queue = SimQueue(sim, "q")
    seen = []

    def consumer(name):
        while True:
            item = yield queue.get()
            seen.append((name, item))

    sim.spawn(consumer("c1"))
    sim.spawn(consumer("c2"))

    def producer():
        for i in range(4):
            yield Timeout(10)
            queue.put_nowait(i)

    sim.spawn(producer())
    sim.run(until=1000)
    # blocked consumers are served in FIFO order: c1, c2, c1, c2
    assert seen == [("c1", 0), ("c2", 1), ("c1", 2), ("c2", 3)]


def test_get_blocks_until_item_arrives():
    sim = Simulator()
    queue = SimQueue(sim, "q")
    arrival = []

    def consumer():
        item = yield queue.get()
        arrival.append((sim.now, item))

    sim.spawn(consumer())
    sim.schedule(500, queue.put_nowait, "late")
    sim.run()
    assert arrival == [(500, "late")]


def test_bounded_queue_put_nowait_overflow():
    sim = Simulator()
    queue = SimQueue(sim, "q", capacity=1)
    queue.put_nowait("a")
    with pytest.raises(OverflowError):
        queue.put_nowait("b")


def test_bounded_queue_blocking_put_applies_backpressure():
    sim = Simulator()
    queue = SimQueue(sim, "q", capacity=1)
    times = []
    # resumed with True once a parked item gets in
    producer = Continuation("producer", lambda _accepted: times.append(sim.now))
    for item in ("a", "b"):
        if queue.offer(item, producer):
            times.append(sim.now)

    def consumer():
        yield Timeout(100)
        queue.get_nowait()
        yield Timeout(100)

    sim.spawn(consumer())
    sim.run()
    # first put immediate; second blocked until the consumer freed a slot
    assert times[0] == 0
    assert times[1] == 100


def test_queue_wait_statistics():
    sim = Simulator()
    queue = SimQueue(sim, "q")
    queue.put_nowait("x")

    def consumer():
        yield Timeout(250)
        item = yield queue.get()
        assert item == "x"

    sim.spawn(consumer())
    sim.run()
    assert queue.dequeued_total == 1
    assert queue.mean_wait == 250


def test_queue_depth_statistics():
    sim = Simulator()
    queue = SimQueue(sim, "q")
    for i in range(5):
        queue.put_nowait(i)
    assert len(queue) == 5
    assert queue.max_depth == 5
    assert queue.enqueued_total == 5
    queue.get_nowait()
    assert len(queue) == 4


def test_queue_depth_and_waiters_accessors():
    sim = Simulator()
    queue = SimQueue(sim, "q")
    assert queue.depth == 0 and queue.waiters == 0

    def consumer():
        yield queue.get()

    sim.spawn(consumer())
    sim.run()  # consumer now blocked on an empty queue
    assert queue.waiters == 1
    queue.put_nowait("x")
    sim.run()
    assert queue.waiters == 0
    queue.put_nowait("y")
    assert queue.depth == 1


def test_queue_stats_snapshot():
    sim = Simulator()
    queue = SimQueue(sim, "q")
    for i in range(3):
        queue.put_nowait(i)
    queue.get_nowait()
    stats = queue.stats()
    assert stats == {
        "depth": 2,
        "enqueued": 3,
        "dequeued": 1,
        "shed": 0,
        "rejected": 0,
        "max_depth": 3,
        "mean_wait": 0,
    }


def test_get_nowait_empty_raises():
    sim = Simulator()
    queue = SimQueue(sim, "q")
    with pytest.raises(IndexError):
        queue.get_nowait()


def test_handoff_to_waiting_consumer_counts_zero_wait():
    sim = Simulator()
    queue = SimQueue(sim, "q")

    def consumer():
        yield queue.get()

    sim.spawn(consumer())
    sim.run()  # consumer now blocked
    queue.put_nowait("x")
    sim.run()
    assert queue.mean_wait == 0
    assert queue.dequeued_total == 1
