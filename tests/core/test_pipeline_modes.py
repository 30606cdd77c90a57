"""Tests for pipeline variants: thread counts, upper-bound mode, ablations."""

import pytest

from repro.core import ResilientDBSystem, SystemConfig, execution
from repro.sim.clock import millis
from repro.storage.base import STORAGE_COSTS


def test_zero_batch_threads_still_commits(small_config):
    config = small_config.with_options(batch_threads=0)
    system = ResilientDBSystem(config)
    result = system.run()
    assert result.completed_requests > 50
    system.validate_safety()
    # no batch-thread saturation entries exist
    assert not any(s.startswith("batch") for s in result.primary_saturation)


def test_zero_execute_threads_still_commits(small_config):
    config = small_config.with_options(execute_threads=0)
    system = ResilientDBSystem(config)
    result = system.run()
    assert result.completed_requests > 50
    system.validate_safety()
    assert "execute" not in result.primary_saturation


def test_zero_execute_threads_execute_one_batch_at_a_time(monkeypatch):
    """With ``execute_threads=0`` every thread that commits a batch drains
    the execute order, and a Zyzzyva primary's batch-threads commit on
    every propose.  Two drains at once executed two batches at once: a
    spec-response built after the other batch was recorded carried its
    history hash, and its client waited out the 4 s Zyzzyva timeout
    (15 overlaps, 1.1K txns/s here)."""
    config = SystemConfig(
        protocol="zyzzyva", num_replicas=4, num_clients=24, client_groups=4,
        batch_size=8, ycsb_records=500, warmup=millis(20), measure=millis(60),
        seed=3, batch_threads=2, execute_threads=0,
    )
    in_flight, overlaps = {}, [0]
    execute_batch = execution.execute_batch

    def counted(replica, action, thread_id):
        rid = replica.replica_id
        in_flight[rid] = in_flight.get(rid, 0) + 1
        overlaps[0] += in_flight[rid] > 1
        yield from execute_batch(replica, action, thread_id)
        in_flight[rid] -= 1

    monkeypatch.setattr(execution, "execute_batch", counted)
    system = ResilientDBSystem(config)
    result = system.run()
    assert overlaps[0] == 0
    assert result.throughput_txns_per_s > 30_000
    system.validate_safety()


def test_minimal_pipeline_0b0e(small_config):
    config = small_config.with_options(batch_threads=0, execute_threads=0)
    system = ResilientDBSystem(config)
    result = system.run()
    assert result.completed_requests > 50
    system.validate_safety()


def test_deeper_pipeline_not_slower(small_config):
    """Fig. 8's point: the full pipeline beats the single-threaded one
    (allowing sub-percent scheduling noise when neither is saturated)."""
    heavy = small_config.with_options(num_clients=512, batch_size=32)
    full = ResilientDBSystem(heavy).run()
    minimal = ResilientDBSystem(
        heavy.with_options(batch_threads=0, execute_threads=0)
    ).run()
    assert full.throughput_txns_per_s >= 0.98 * minimal.throughput_txns_per_s


def test_upper_bound_mode_no_consensus_messages(small_config):
    config = small_config.with_options(consensus_enabled=False)
    system = ResilientDBSystem(config)
    result = system.run()
    assert result.completed_requests > 100
    # only requests and responses cross the network: 2 messages/request
    per_request = result.messages_sent / result.completed_requests
    assert per_request < 2.5
    assert result.chain_height == 0  # no blocks without consensus


def test_upper_bound_no_execution_faster_or_equal(small_config):
    executed = ResilientDBSystem(
        small_config.with_options(consensus_enabled=False)
    ).run()
    skipped = ResilientDBSystem(
        small_config.with_options(consensus_enabled=False, execution_enabled=False)
    ).run()
    assert skipped.throughput_txns_per_s >= executed.throughput_txns_per_s


def test_out_of_order_beats_serialised(small_config):
    """§4.5 ablation: parallel consensus vs one-at-a-time."""
    loaded = small_config.with_options(num_clients=512, batch_size=16)
    parallel = ResilientDBSystem(loaded).run()
    serial_system = ResilientDBSystem(loaded.with_options(out_of_order=False))
    serial = serial_system.run()
    assert serial.completed_requests > 0
    assert parallel.throughput_txns_per_s > serial.throughput_txns_per_s
    serial_system.validate_safety()


def test_prev_hash_certification_mode(small_config):
    from repro.storage.blockchain import CertificationMode

    config = small_config.with_options(certification=CertificationMode.PREV_HASH)
    system = ResilientDBSystem(config)
    result = system.run()
    assert result.completed_requests > 0
    primary = system.replicas["r0"]
    primary.ledger.chain.validate()
    head = primary.ledger.chain.head()
    assert head.prev_hash is not None
    assert head.commit_certificate == ()


def test_buffer_pool_disabled_still_works(small_config):
    system = ResilientDBSystem(small_config.with_options(buffer_pool=False))
    result = system.run()
    assert result.completed_requests > 0
    primary = system.replicas["r0"]
    assert primary.message_pool.hits == 0


def test_message_pool_refills_as_batches_execute(small_config, monkeypatch):
    """Each proposal takes a message object from the primary's pool and
    its execution returns it, so the pool never drains for good.  A
    64-object pool stands in for the deployed 4,096 so that a short run
    proposes several times the pool's capacity."""
    import repro.core.replica as replica_module

    monkeypatch.setattr(replica_module, "BUFFER_POOL_CAPACITY", 64)
    config = small_config.with_options(
        batch_size=1, warmup=millis(5), measure=millis(20)
    )
    system = ResilientDBSystem(config)
    system.run()
    pool = system.replicas["r0"].message_pool
    assert pool.capacity == 64
    assert pool.hits > 4 * pool.capacity
    assert pool.misses == 0


def test_buffer_pool_recycling_cheaper():
    """Pooled acquisition charges less simulated CPU than allocation."""
    from repro.storage.bufferpool import BufferPool

    assert BufferPool.pooled_acquire_ns < BufferPool.alloc_ns


def test_multiop_transactions_execute_all_ops(small_config):
    config = small_config.with_options(ops_per_txn=5, batch_size=4)
    system = ResilientDBSystem(config)
    result = system.run()
    assert result.completed_requests > 0
    assert result.throughput_ops_per_s == pytest.approx(
        5 * result.throughput_txns_per_s, rel=0.01
    )


def test_payload_padding_increases_wire_bytes(small_config):
    small = ResilientDBSystem(small_config).run()
    padded_system = ResilientDBSystem(
        small_config.with_options(payload_padding_bytes=4096)
    )
    padded = padded_system.run()
    small_bpr = small.bytes_sent / max(1, small.completed_requests)
    padded_bpr = padded.bytes_sent / max(1, padded.completed_requests)
    # 4 KB of padding travels client→primary once and primary→backups
    # n-1 times, so each request should carry >10 KB of extra traffic
    assert padded_bpr > 2 * small_bpr
    assert padded_bpr - small_bpr > 10_000


def test_client_batching_mode(small_config):
    """§4.2: clients can send a burst of transactions as one request."""
    config = small_config.with_options(client_batch_txns=10, batch_size=20)
    system = ResilientDBSystem(config)
    result = system.run()
    assert result.completed_requests > 0
    assert result.completed_txns >= 10 * result.completed_requests
    system.validate_safety()


def test_upper_bound_mode_charges_the_backends_storage_cost(small_config):
    """Fig. 7's responder threads pay the configured backend's per-op
    storage cost, as the consensus execute-thread does."""
    from repro.consensus.messages import ClientRequest
    from repro.workloads import Operation, OpType, Transaction

    def responder_busy_ns(backend: str):
        config = small_config.with_options(
            consensus_enabled=False,
            batch_threads=1,
            storage_backend=backend,
            real_auth_tokens=False,
        )
        system = ResilientDBSystem(config)
        try:
            replica = system.replicas["r0"]
            replica.start()  # the responder alone: no client traffic
            for request_id in range(20):
                ops = (
                    Operation(OpType.WRITE, f"user{request_id}", "v"),
                    Operation(OpType.READ, "user1"),
                )
                txns = (Transaction("client0", ops),) * 3
                replica.batch_queue.put_nowait(
                    ClientRequest("client0", request_id, txns)
                )
            system.sim.run(until=millis(100))
            executed = system.metrics.counter("replica_ops_executed").value
            return replica.cpu.busy_ns["r0.batch-0"], executed
        finally:
            system.close()

    memory_ns, memory_ops = responder_busy_ns("memory")
    sqlite_ns, sqlite_ops = responder_busy_ns("sqlite")
    assert memory_ops == sqlite_ops == 120  # half writes, half reads
    costs = STORAGE_COSTS
    per_pair = (costs.sqlite_write_ns - costs.memory_write_ns) + (
        costs.sqlite_read_ns - costs.memory_read_ns
    )
    assert sqlite_ns - memory_ns == (memory_ops // 2) * per_pair
