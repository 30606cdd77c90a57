"""Unit-level tests of replica internals (no full runs)."""

import pytest

from repro.consensus.messages import ClientRequest, RequestBatch, make_null_batch
from repro.core import ResilientDBSystem, stages
from repro.workloads import Operation, OpType, Transaction


@pytest.fixture
def system(small_config):
    return ResilientDBSystem(small_config)


def make_batch(txns=3):
    request = ClientRequest(
        "client0",
        1,
        tuple(
            Transaction("client0", (Operation(OpType.WRITE, f"k{i}", "v"),))
            for i in range(txns)
        ),
    )
    batch = RequestBatch((request,))
    batch.digest = "d"
    return batch


def test_output_queue_routing_is_stable(system):
    replica = system.replicas["r0"]
    before = [queue.enqueued_total for queue in replica.output_queues]
    replica.enqueue_output("r1", object())
    replica.enqueue_output("r1", object())
    after = [queue.enqueued_total for queue in replica.output_queues]
    # both messages landed on the same queue (per-destination affinity)
    deltas = [b - a for a, b in zip(before, after)]
    assert sorted(deltas) == [0, 2]


def test_digest_cost_per_batch_cheaper_than_per_request(system):
    replica = system.replicas["r0"]
    requests = tuple(
        ClientRequest(
            "client0",
            i,
            (Transaction("client0", (Operation(OpType.WRITE, "k", "v"),)),),
        )
        for i in range(10)
    )
    batch = RequestBatch(requests)
    per_batch = stages.batch_digest_cost(replica.config, batch)
    per_request = stages.batch_digest_cost(
        replica.config.with_options(per_request_digests=True), batch
    )
    assert per_request > per_batch


def test_null_batch_properties():
    batch = make_null_batch()
    assert batch.is_null
    assert batch.txn_count == 0
    assert batch.digest == "null-batch"
    assert batch.batch_bytes() == b""


def test_request_batch_size_accounting():
    batch = make_batch(txns=4)
    assert batch.txn_count == 4
    assert batch.payload_bytes() > 4 * 16
    # batch bytes cached and stable
    assert batch.batch_bytes() is batch.batch_bytes()


def test_current_primary_tracks_engine_view(system):
    replica = system.replicas["r1"]
    assert replica.engine.forward_target("client0", 1) == "r0"
    replica.engine.view = 1
    assert replica.engine.forward_target("client0", 1) == "r1"
    assert replica.is_primary


@pytest.mark.parametrize("batch_threads", [1, 0])
def test_batch_fill_counts_transactions(small_config, batch_threads, monkeypatch):
    """Batches close on transactions, not requests: three-transaction
    requests pair up under batch_size=6, in the batch-thread and in the 0B
    worker alike; a lone leftover goes out at the fill deadline."""
    config = small_config.with_options(batch_size=6, batch_threads=batch_threads)
    system = ResilientDBSystem(config)
    replica = system.replicas["r0"]
    proposed = []

    def record(replica, requests, thread_id):
        proposed.append([request.request_id for request in requests])
        yield 0

    monkeypatch.setattr(stages, "form_and_propose", record)
    for i in range(5):
        request = ClientRequest(
            "c", i,
            tuple(
                Transaction("c", (Operation(OpType.WRITE, "k", "v"),))
                for _ in range(3)
            ),
        )
        if batch_threads:
            replica.batch_queue.put_nowait(request)
        else:
            replica.work_queue.put_nowait(request, 1)
    if batch_threads:
        system.sim.spawn(stages.batch_loop(replica, 0))
    else:
        system.sim.spawn(stages.worker_loop(replica))
    system.sim.run()
    assert proposed == [[0, 1], [2, 3], [4]]


def test_replica_endpoint_and_cpu_registered(system):
    replica = system.replicas["r0"]
    assert replica.endpoint.name == "r0"
    assert replica.cpu.cores == system.config.cores_per_replica
    assert replica.ledger.chain.height == 0
    assert replica.ledger.next_sequence == 1
