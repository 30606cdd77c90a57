"""Bounded-queue back-pressure policies: block, shed_oldest, reject."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.process import Continuation
from repro.sim.queues import SimPriorityQueue, SimQueue


# ----------------------------------------------------------------------
# offer(): the policy-aware producer path
# ----------------------------------------------------------------------
def test_offer_within_capacity_accepts():
    sim = Simulator()
    queue = SimQueue(sim, "q", capacity=2, policy="reject")
    assert queue.offer("a") is True
    assert queue.offer("b") is True
    assert queue.depth == 2


def test_reject_policy_refuses_at_capacity():
    sim = Simulator()
    queue = SimQueue(sim, "q", capacity=1, policy="reject")
    assert queue.offer("a") is True
    assert queue.offer("b") is False
    assert queue.rejected_total == 1
    # the refused item left no trace in the queue
    assert queue.get_nowait() == "a"
    assert queue.depth == 0


def test_shed_oldest_evicts_head_and_reports_victim():
    sim = Simulator()
    victims = []
    queue = SimQueue(
        sim, "q", capacity=2, policy="shed_oldest", on_shed=victims.append
    )
    for item in ("a", "b", "c", "d"):
        assert queue.offer(item) is True
    assert victims == ["a", "b"]
    assert queue.shed_total == 2
    # drop-from-head preserves FIFO order of the survivors
    assert [queue.get_nowait(), queue.get_nowait()] == ["c", "d"]


def test_block_policy_offer_overflows_like_put_nowait():
    sim = Simulator()
    queue = SimQueue(sim, "q", capacity=1, policy="block")
    queue.offer("a")
    # with no producer to park, a full block queue raises
    with pytest.raises(OverflowError):
        queue.offer("b")


# ----------------------------------------------------------------------
# offer(item, producer): a full block queue parks the producer
# ----------------------------------------------------------------------
def recording_producer(sim, log, label=None):
    """A producer that logs each resume as (label, value, time)."""
    return Continuation(
        "producer", lambda value: log.append((label, value, sim.now))
    )


def test_block_policy_parks_producer_until_capacity_frees():
    sim = Simulator()
    queue = SimQueue(sim, "q", capacity=1, policy="block")
    queue.put_nowait("first")
    log = []
    assert queue.offer("second", recording_producer(sim, log, "accepted")) is None
    assert queue.blocked_producers == 1

    def consumer():
        yield 10
        item = queue.get_nowait()
        log.append(("got", item, sim.now))

    sim.spawn(consumer())
    sim.run()
    # the producer parked at t=0 and only resumed once the consumer made
    # room at t=10; the parked item then entered the queue
    assert log == [("got", "first", 10), ("accepted", True, 10)]
    assert queue.get_nowait() == "second"


def test_reject_policy_put_resumes_with_false():
    sim = Simulator()
    queue = SimQueue(sim, "q", capacity=1, policy="reject")
    queue.put_nowait("first")
    log = []
    assert queue.offer("second", recording_producer(sim, log)) is False
    sim.run()
    # refused at once: the producer is never parked or resumed
    assert log == []
    assert queue.depth == 1 and queue.blocked_producers == 0


def test_shed_oldest_put_always_accepts():
    sim = Simulator()
    victims = []
    queue = SimQueue(
        sim, "q", capacity=1, policy="shed_oldest", on_shed=victims.append
    )
    queue.put_nowait("old")
    log = []
    assert queue.offer("new", recording_producer(sim, log)) is True
    sim.run()
    assert log == []
    assert victims == ["old"]
    assert queue.get_nowait() == "new"


def test_waiting_consumer_woken_by_policy_put():
    sim = Simulator()
    queue = SimQueue(sim, "q", capacity=1, policy="reject")
    received = []

    def consumer():
        item = yield queue.get()
        received.append((item, sim.now))

    def producer():
        yield 5
        assert queue.offer("x", recording_producer(sim, [])) is True

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert received == [("x", 5)]


def test_multiple_blocked_producers_wake_in_fifo_order():
    sim = Simulator()
    queue = SimQueue(sim, "q", capacity=1, policy="block")
    queue.put_nowait("seed")
    log = []
    for item in ("p1", "p2"):
        assert queue.offer(item, recording_producer(sim, log, item)) is None
    drained = []

    def consumer():
        for _ in range(3):
            yield 10
            drained.append(queue.get_nowait())

    sim.spawn(consumer())
    sim.run()
    assert log == [("p1", True, 10), ("p2", True, 20)]
    assert drained == ["seed", "p1", "p2"]


# ----------------------------------------------------------------------
# priority queue: unbounded, heap order on every producer path
# ----------------------------------------------------------------------
def test_priority_queue_never_bounds_protocol_traffic():
    sim = Simulator()
    queue = SimPriorityQueue(sim, "pq")
    assert queue.capacity is None
    with pytest.raises(TypeError):
        SimPriorityQueue(sim, "pq", capacity=2)
    for i in range(50):
        queue.put_nowait(f"c{i}", priority=1)
        queue.put_nowait(f"m{i}", priority=0)
    assert queue.depth == 100
    drained = [queue.get_nowait() for _ in range(100)]
    assert drained == [f"m{i}" for i in range(50)] + [f"c{i}" for i in range(50)]


def test_priority_queue_inherited_producers_keep_heap_order():
    sim = Simulator()
    queue = SimPriorityQueue(sim, "pq")
    queue.put_nowait("c1", priority=1)
    queue.put_nowait("c2", priority=1)
    # offer() comes from SimQueue; with or without a producer it admits
    # at the default priority 0, ahead of the queued client requests
    assert queue.offer("m1") is True
    log = []
    assert queue.offer("m2", recording_producer(sim, log)) is True
    sim.run()
    assert log == []
    drained = [queue.get_nowait() for _ in range(queue.depth)]
    assert drained == ["m1", "m2", "c1", "c2"]


def test_shed_and_reject_counters_in_stats():
    sim = Simulator()
    queue = SimQueue(sim, "q", capacity=1, policy="shed_oldest")
    queue.offer("a")
    queue.offer("b")
    stats = queue.stats()
    assert stats["shed"] == 1
    assert stats["rejected"] == 0
    queue.policy = "reject"
    assert queue.offer("c") is False
    assert queue.stats()["rejected"] == 1
