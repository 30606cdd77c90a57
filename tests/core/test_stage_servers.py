"""The replica's input and output threads as callback servers.

Each test builds a deployment without starting it, starts one stage by
hand, feeds its queue directly and runs the simulator, so every effect the
stage performs — queue gets, CPU charges, block-policy puts — is visible.
"""

import pytest

from repro.consensus.messages import Checkpoint, ClientRequest, Prepare
from repro.core import WORK_COSTS, ResilientDBSystem
from repro.core.stages import InputStage, OutputStage
from repro.sim.process import ProcessFailure
from repro.workloads import Operation, OpType, Transaction


def make_request(request_id, sender="client0"):
    txn = Transaction(sender, (Operation(OpType.WRITE, f"k{request_id}", "v"),))
    return ClientRequest(sender, request_id, (txn,))


def test_blocked_input_stage_parks_and_resumes_in_fifo_order(small_config):
    config = small_config.with_options(
        input_threads=1, queue_policy="block", batch_queue_capacity=1
    )
    system = ResilientDBSystem(config)
    primary = system.replicas["r0"]
    requests = [make_request(i) for i in range(5)]
    for request in requests:
        primary.endpoint.inbox.put_nowait(request)
    InputStage(primary, 0)
    system.sim.run()
    # one request fills the batch queue, the next parks the stage, and
    # the rest wait in the inbox behind it
    batch_queue = primary.batch_queue
    assert batch_queue.depth == 1
    assert batch_queue.blocked_producers == 1
    assert primary.endpoint.inbox.depth == 3
    drained = []
    while batch_queue.depth:
        drained.append(batch_queue.get_nowait())
        system.sim.run()
    assert drained == requests
    assert batch_queue.blocked_producers == 0


def test_input_stage_charges_dispatch_and_sequencing(small_config):
    system = ResilientDBSystem(small_config.with_options(input_threads=1))
    costs = WORK_COSTS
    messages = [
        make_request(1),
        Prepare("r2", 0, 1, "d"),
        make_request(2),
        Checkpoint("r3", 10, "s", blocks_included=1),
        make_request(3),
    ]
    for replica_id in ("r0", "r1"):
        replica = system.replicas[replica_id]
        for message in messages:
            replica.endpoint.inbox.put_nowait(message)
        InputStage(replica, 0)
    system.sim.run()
    primary, backup = system.replicas["r0"], system.replicas["r1"]
    # the primary sequences the three client requests ...
    assert primary.cpu.busy_ns["r0.input-0"] == (
        5 * costs.input_dispatch_ns + 3 * costs.sequence_assign_ns
    )
    assert primary.batch_queue.depth == 3
    # ... a backup forwards them to the primary unsequenced
    assert backup.cpu.busy_ns["r1.input-0"] == 5 * costs.input_dispatch_ns
    assert backup.forwarded_requests == 3
    for replica in (primary, backup):
        assert replica.work_queue.depth == 1
        assert replica.checkpoint_queue.depth == 1


def test_output_stages_deliver_in_enqueue_order(small_config, monkeypatch):
    system = ResilientDBSystem(small_config)
    replica = system.replicas["r0"]
    sent = []
    monkeypatch.setattr(
        system.network, "send",
        lambda src, dst, message: sent.append((src, dst, message)),
    )
    queued = {index: [] for index in range(len(replica.output_queues))}
    for i in range(12):
        dst = f"r{1 + i % 3}"
        message = Prepare("r0", 0, i, "d")
        replica.enqueue_output(dst, message)
        index = replica.output_queues.index(replica._output_queue_for[dst])
        queued[index].append((dst, message))
    for index in queued:
        OutputStage(replica, index)
    system.sim.run()
    for index, pairs in queued.items():
        delivered = [
            (dst, message) for _src, dst, message in sent
            if replica._output_queue_for[dst] is replica.output_queues[index]
        ]
        assert delivered == pairs
        assert replica.cpu.busy_ns.get(f"r0.output-{index}", 0) == (
            len(pairs) * WORK_COSTS.output_send_ns
        )
    assert len(sent) == 12


def test_input_stage_failure_names_the_thread(small_config):
    system = ResilientDBSystem(small_config)
    replica = system.replicas["r2"]
    replica.endpoint.inbox.put_nowait(object())  # has no ``kind``
    InputStage(replica, 1)
    with pytest.raises(ProcessFailure, match=r"r2\.input-1") as excinfo:
        system.sim.run()
    assert isinstance(excinfo.value.original, AttributeError)


def test_output_stage_failure_names_the_thread(small_config):
    system = ResilientDBSystem(small_config)
    replica = system.replicas["r1"]
    replica.output_queues[0].put_nowait("not a (dst, message) pair")
    OutputStage(replica, 0)
    with pytest.raises(ProcessFailure, match=r"r1\.output-0") as excinfo:
        system.sim.run()
    assert isinstance(excinfo.value.original, ValueError)
