"""Tests for buffer pools and checkpoint bookkeeping."""

import pytest

from repro.storage import BufferPool, CheckpointStore


# ----------------------------------------------------------------------
# buffer pool
# ----------------------------------------------------------------------
def test_pool_hit_is_cheaper_than_allocation():
    pool = BufferPool(capacity=4)
    hit_cost = pool.acquire_bulk(1)
    assert hit_cost == BufferPool.pooled_acquire_ns
    assert hit_cost < BufferPool.alloc_ns


def test_pool_miss_falls_back_to_allocation():
    pool = BufferPool(capacity=1)
    pool.acquire_bulk(1)
    miss_cost = pool.acquire_bulk(1)
    assert miss_cost == BufferPool.alloc_ns
    assert pool.hits == 1 and pool.misses == 1


def test_release_recycles_objects():
    pool = BufferPool(capacity=1)
    pool.acquire_bulk(1)
    assert pool.available == 0
    pool.release_bulk(1)
    assert pool.available == 1
    assert pool.acquire_bulk(1) == BufferPool.pooled_acquire_ns


def test_release_beyond_capacity_drops():
    pool = BufferPool(capacity=1)
    pool.release_bulk(1)
    pool.release_bulk(1)
    assert pool.available == 1


def test_disabled_pool_always_allocates():
    pool = BufferPool(capacity=8, enabled=False)
    assert pool.acquire_bulk(1) == BufferPool.alloc_ns
    assert pool.hit_rate() == 0.0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        BufferPool(capacity=-1)


def test_hit_rate():
    pool = BufferPool(capacity=2)
    pool.acquire_bulk(1)
    pool.acquire_bulk(1)
    pool.acquire_bulk(1)  # miss
    assert pool.hit_rate() == pytest.approx(2 / 3)


def test_bulk_counts_and_released_objects_share_the_capacity():
    pool = BufferPool(capacity=5)
    assert pool.available == 5
    assert pool.acquire_bulk(7) == 5 * BufferPool.pooled_acquire_ns + (
        2 * BufferPool.alloc_ns
    )
    assert pool.available == 0
    pool.release_bulk(3)
    pool.release_bulk(1)
    pool.release_bulk(4)  # only one slot left
    assert pool.available == 5 and pool.returned == 8
    assert pool.acquire_bulk(1) == BufferPool.pooled_acquire_ns
    assert pool.acquire_bulk(5) == 4 * BufferPool.pooled_acquire_ns + (
        BufferPool.alloc_ns
    )
    assert (pool.hits, pool.misses) == (10, 3)


def test_prefill_is_capped_at_the_limit():
    pool = BufferPool(capacity=BufferPool.PREFILL_LIMIT * 10)
    assert pool.available == BufferPool.PREFILL_LIMIT


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def test_checkpoint_sequence_predicate():
    store = CheckpointStore(quorum_size=3, interval=100)
    assert not store.is_checkpoint_sequence(0)
    assert not store.is_checkpoint_sequence(50)
    assert store.is_checkpoint_sequence(100)
    assert store.is_checkpoint_sequence(200)


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        CheckpointStore(quorum_size=3, interval=0)


def test_stability_requires_quorum_of_identical_votes():
    store = CheckpointStore(quorum_size=3, interval=10)
    assert not store.record_vote(10, "digestA", "r0")
    assert not store.record_vote(10, "digestA", "r1")
    # a diverging replica's vote (different digest) must not count
    assert not store.record_vote(10, "digestB", "r2")
    assert store.record_vote(10, "digestA", "r3")
    assert store.stable_sequence == 10


def test_duplicate_votes_do_not_count_twice():
    store = CheckpointStore(quorum_size=3, interval=10)
    store.record_vote(10, "d", "r0")
    store.record_vote(10, "d", "r0")
    store.record_vote(10, "d", "r0")
    assert store.stable_sequence == 0


def test_gc_horizon_is_previous_stable_checkpoint():
    store = CheckpointStore(quorum_size=2, interval=10)
    store.record_vote(10, "d10", "r0")
    store.record_vote(10, "d10", "r1")
    assert store.stable_sequence == 10
    assert store.gc_horizon() == 0  # "before the previous checkpoint"
    store.record_vote(20, "d20", "r0")
    store.record_vote(20, "d20", "r1")
    assert store.stable_sequence == 20
    assert store.gc_horizon() == 10


def test_votes_below_stable_horizon_ignored():
    store = CheckpointStore(quorum_size=2, interval=10)
    store.record_vote(20, "d20", "r0")
    store.record_vote(20, "d20", "r1")
    assert not store.record_vote(10, "d10", "r0")
    assert store.pending_checkpoints() == 0


def test_vote_counting_query():
    store = CheckpointStore(quorum_size=3, interval=10)
    store.record_vote(10, "d", "r0")
    assert store.votes_for(10, "d") == 1
    assert store.votes_for(10, "other") == 0
