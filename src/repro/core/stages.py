"""The replica's ordering stages (§4.1–§4.4): input, batch, worker, output.

- ``input-i`` threads (:class:`InputStage`): pull messages off the
  endpoint inbox, classify and route them.  At the primary, client
  requests go to the batch-threads' *common queue*; protocol messages go
  to the worker's queue; checkpoint messages to the checkpoint-thread's
  queue.  Non-primaries forward client requests to the current primary.
- ``batch-i`` threads (:func:`batch_loop`, primary): verify client
  signatures, assemble up to ``batch_size`` transactions into a batch,
  hash the batch string once, hand the batch to the consensus engine's
  ``propose`` and sign the proposal.
- ``worker`` thread (:func:`worker_loop`): verifies and feeds every
  protocol message to the consensus state machine, signs and emits the
  resulting votes.
- ``output-i`` threads (:class:`OutputStage`): drain per-thread send
  queues onto the NIC, with destinations spread across the threads (§4.1).

The input and output threads are callback servers: each binds the
effects a generator loop would yield, in the same order, to
:class:`~repro.sim.process.Continuation` steps, so the modelled history
is unchanged while the host skips a generator resume per step.
"""

from __future__ import annotations

from typing import List

from repro.consensus.base import ProposalError
from repro.consensus.messages import ClientRequest, RequestBatch
from repro.core import execution, recovery
from repro.core.config import WORK_COSTS
from repro.crypto.hashing import digest_bytes, digest_cost
from repro.net.message import Message
from repro.sim.clock import millis
from repro.sim.events import TIMEOUT, Timeout, Timer
from repro.sim.process import Continuation

#: how long a batch-thread waits for its batch to fill before proposing a
#: partial one.  Bounds latency at low load; under load batches always
#: fill.  (Without it, medium loads degenerate into near-empty batches and
#: consensus overhead explodes.)
BATCH_FILL_TIMEOUT = millis(2)
#: output-threads per replica, each draining its own send queue (§4.1)
OUTPUT_THREADS = 2
#: how often an RCC lane leader runs its balance pass, committing
#: null-batch skip certificates for lanes that fell behind the merge
RCC_BALANCE_INTERVAL = millis(2)

#: proposal messages whose batch digest a backup must re-verify
_PROPOSAL_KINDS = ("pre-prepare", "order-request", "poe-propose")

#: sentinel a flush timer drops into the work queue so a 0B worker's
#: partial batch is proposed once the fill deadline passes
_FLUSH_BATCH = object()


# -- input and output threads (§4.1) as callback servers -------------------
class InputStage:
    """One ``input-i`` thread: take a message off the inbox, charge the
    dispatch cost, route it, repeat.

    At the primary a client request is also admitted, charged the
    sequencing cost and queued for batching; protocol messages go to the
    worker's queue and checkpoint votes to the checkpoint-thread's.  A
    full ``block`` batch queue parks the stage until the put resolves, and
    the inbox backs up behind it.
    """

    __slots__ = (
        "replica", "sim", "_receive", "_dispatch_cost", "_sequence_cost",
        "_received", "_dispatched", "_sequenced", "_put_resolved",
        "_message",
    )

    def __init__(self, replica, index: int):
        self.replica = replica
        self.sim = replica.sim
        name = f"{replica.replica_id}.input-{index}"
        self._receive = replica.endpoint.inbox.get()
        self._dispatch_cost = replica.cpu.run(WORK_COSTS.input_dispatch_ns, name)
        self._sequence_cost = replica.cpu.run(WORK_COSTS.sequence_assign_ns, name)
        self._received = Continuation(name, self._on_message)
        self._dispatched = Continuation(name, self._on_dispatched)
        self._sequenced = Continuation(name, self._hand_off)
        self._put_resolved = Continuation(name, self._on_put_resolved)
        self._message = None
        # the hop a spawned process takes before its first step
        self.sim.schedule(0, self._next_message)

    def _next_message(self) -> None:
        self._receive._bind(self.sim, self._received)

    def _on_message(self, message) -> None:
        self._message = message
        self._dispatch_cost._bind(self.sim, self._dispatched)

    def _on_dispatched(self, _value) -> None:
        message = self._message
        replica = self.replica
        kind = message.kind
        if kind == "client-request":
            if not replica.config.consensus_enabled:
                # Fig. 7 upper-bound mode: requests go straight to the
                # independent responder threads, unadmitted
                self._hand_off()
            elif replica.admit_client_request(message):
                self._sequence_cost._bind(self.sim, self._sequenced)
            else:
                self._next_message()
        else:
            # protocol queues are unbounded; protocol messages ride at
            # priority 0 in the work queue
            if kind == "checkpoint":
                replica.checkpoint_queue.put_nowait(message)
            else:
                replica.work_queue.put_nowait(message)
            self._next_message()

    def _hand_off(self, _value=None) -> None:
        """Queue the request for batching; go on at once unless a full
        ``block`` queue parked the stage."""
        accepted = self.replica.queue_sequenced(
            self._message, self._put_resolved
        )
        if accepted is not None:
            self._on_put_resolved(accepted)

    def _on_put_resolved(self, accepted: bool) -> None:
        if not accepted:
            self.replica.reject_request(self._message, "queue")
        self._next_message()


class OutputStage:
    """One ``output-i`` thread: take a ``(dst, message)`` pair off its send
    queue, charge the send cost, hand the message to the NIC, repeat."""

    __slots__ = (
        "replica", "sim", "_receive", "_send_cost", "_received", "_charged",
        "_pending",
    )

    def __init__(self, replica, index: int):
        self.replica = replica
        self.sim = replica.sim
        name = f"{replica.replica_id}.output-{index}"
        self._receive = replica.output_queues[index].get()
        self._send_cost = replica.cpu.run(WORK_COSTS.output_send_ns, name)
        self._received = Continuation(name, self._on_item)
        self._charged = Continuation(name, self._on_charged)
        self._pending = None
        # the hop a spawned process takes before its first step
        self.sim.schedule(0, self._next_item)

    def _next_item(self) -> None:
        self._receive._bind(self.sim, self._received)

    def _on_item(self, item) -> None:
        self._pending = item
        self._send_cost._bind(self.sim, self._charged)

    def _on_charged(self, _value) -> None:
        dst, message = self._pending
        self._pending = None
        replica = self.replica
        replica.system.network.send(replica.replica_id, dst, message)
        self._next_item()


# -- batch threads (§4.2–§4.3) ---------------------------------------------
def batch_loop(replica, index: int):
    thread_id = f"{replica.replica_id}.batch-{index}"
    if not replica.config.consensus_enabled:
        yield from execution.upper_bound_loop(replica, thread_id)
        return
    sim = replica.sim
    batch_queue = replica.batch_queue
    batch_size = replica.config.batch_size
    while True:
        first = yield batch_queue.get()
        requests = [first]
        txns = len(first.txns)
        # fill the batch; if arrivals stall, the fill deadline bounds
        # how long early requests wait for stragglers
        deadline = sim.now + BATCH_FILL_TIMEOUT
        while txns < batch_size:
            if len(batch_queue) > 0:
                item = batch_queue.get_nowait()
            else:
                remaining = deadline - sim.now
                if remaining <= 0:
                    break
                item = yield batch_queue.get(timeout=remaining)
                if item is TIMEOUT:
                    break
            requests.append(item)
            txns += len(item.txns)
        yield from form_and_propose(replica, requests, thread_id)


def form_and_propose(replica, requests: List[ClientRequest], thread_id: str):
    """Verify, assemble, digest and propose one consensus batch."""
    config = replica.config
    cpu = replica.cpu
    client_scheme = replica.system.client_scheme
    valid_requests = []
    for request in requests:
        yield cpu.run(client_scheme.verify_cost(request.wire_bytes()), thread_id)
        if not replica.authentic(request, client_scheme):
            # a forgery must not hold the key of the genuine request
            replica.host.undo(request)
            continue
        valid_requests.append(request)
    if not valid_requests:
        return
    batch = RequestBatch(tuple(valid_requests))
    alloc_cost = replica.message_pool.acquire_bulk(1)
    alloc_cost += replica.txn_pool.acquire_bulk(batch.txn_count)
    op_count = sum(
        txn.op_count for request in valid_requests for txn in request.txns
    )
    assembly = (
        WORK_COSTS.batch_fixed_ns
        + WORK_COSTS.batch_per_txn_ns * batch.txn_count
        + WORK_COSTS.batch_per_op_ns * op_count
        + alloc_cost
    )
    yield cpu.run(assembly, thread_id)
    yield cpu.run(batch_digest_cost(config, batch), thread_id)
    batch.digest = digest_bytes(batch.batch_bytes())
    token = replica.consensus_token
    if token is not None:
        yield token.get()  # out-of-order disabled
    engine = replica.engine
    proposal = None
    if engine.is_primary:
        if engine.history_chain:
            # the engine extends the primary history hash as it assigns
            # the sequence; charge that hash here
            yield cpu.run(digest_cost(64), thread_id)
        try:
            proposal, actions = engine.propose(batch.digest, batch)
        except ProposalError:
            pass  # e.g. every led RCC lane wedged mid view change
    if proposal is None:
        # the view changed while this batch was being formed: forward the
        # raw requests to their (new) primaries
        for request in valid_requests:
            target = engine.forward_target(request.sender, request.request_id)
            replica.enqueue_output(target, request)
        if token is not None:
            token.put_nowait(None)
        return
    # the batch now owns a sequence number: these requests are past the
    # point where overload shedding may touch them.  (An RCC proposal's
    # sequence is already the global round-robin slot.)
    replica.host.mark_sequenced(valid_requests)
    replica.admission.on_propose(proposal.sequence)
    spans = replica.system.spans
    if spans.enabled:
        now = replica.sim.now
        keys = tuple(
            (request.sender, request.request_id) for request in valid_requests
        )
        for key in keys:
            spans.stamp(key, "batch", now)
        spans.link_batch(proposal.sequence, keys)
        spans.stamp_sequence(proposal.sequence, "propose", now)
    yield from replica.dispatch(actions, thread_id)


def batch_digest_cost(config, batch: RequestBatch) -> int:
    """CPU ns to digest a batch.

    The §4.3 design hashes one string representation of the whole batch;
    the ablation (``per_request_digests``) pays the per-hash setup cost
    once per request plus a combining hash, which is what batching was
    introduced to avoid.
    """
    if not config.per_request_digests:
        return digest_cost(len(batch.batch_bytes()))
    per_request = sum(
        digest_cost(request.payload_bytes()) for request in batch.requests
    )
    return per_request + digest_cost(32 * len(batch.requests))


# -- worker thread (§4.3–§4.4) ---------------------------------------------
def worker_loop(replica):
    thread_id = f"{replica.replica_id}.worker"
    work_queue = replica.work_queue
    pending: List[ClientRequest] = []
    pending_txns = 0
    flush_armed = False
    while True:
        message = yield work_queue.get()
        if message is _FLUSH_BATCH:
            flush_armed = False
        elif message.kind == "client-request":
            # 0B pipeline: the worker performs batching itself
            pending.append(message)
            pending_txns += len(message.txns)
            if pending_txns < replica.config.batch_size:
                if not flush_armed:
                    flush_armed = True
                    Timer(
                        replica.sim, BATCH_FILL_TIMEOUT,
                        work_queue.put_nowait, _FLUSH_BATCH, 0,
                    )
                continue
        else:
            yield from handle_protocol_message(replica, message, thread_id)
            continue
        if pending:
            batch_requests, pending = pending, []
            pending_txns = 0
            yield from form_and_propose(replica, batch_requests, thread_id)


def handle_protocol_message(replica, message: Message, thread_id: str):
    config = replica.config
    cpu = replica.cpu
    scheme = replica.system.replica_scheme
    # commit certificates come from clients, signed with their scheme
    if message.kind == "commit-certificate":
        scheme = replica.system.client_scheme
    yield cpu.run(scheme.verify_cost(message.wire_bytes()), thread_id)
    if not replica.authentic(message, scheme):
        return
    yield cpu.run(WORK_COSTS.worker_message_ns, thread_id)
    # state transfer is host-level, not engine-level
    if message.kind == "state-request":
        yield from recovery.serve_state_transfer(replica, message, thread_id)
        return
    if message.kind == "state-response":
        if recovery.absorb_state_response(replica, message) and replica.ledger.ready:
            # the adopted state may end just below a waiting commit
            yield from execution.wake(replica, thread_id)
        return
    if message.kind in _PROPOSAL_KINDS:
        # a backup re-hashes the batch string to check the digest — the
        # primary cannot be trusted to have hashed honestly
        batch = message.request
        if not batch.is_null:
            # materialise transaction objects for the batch (§4.8)
            if message.sender != replica.replica_id:
                yield cpu.run(
                    replica.txn_pool.acquire_bulk(batch.txn_count), thread_id
                )
            yield cpu.run(batch_digest_cost(config, batch), thread_id)
            if digest_bytes(batch.batch_bytes()) != message.digest:
                replica.invalid_messages += 1
                return
    if replica.recovery.active:
        return  # consensus participation resumes after adoption
    actions = replica.engine.handle(message)
    if actions is None:
        # authenticated, but a kind this engine does not speak
        replica.invalid_messages += 1
        return
    yield from replica.dispatch(actions, thread_id)


# -- multi-primary (RCC) lane balancing ------------------------------------
def balance_loop(replica):
    """Periodic skip-certificate pass for the lanes this replica leads:
    commits null batches into lanes that fell behind the round-robin
    merge, so one idle or failed lane cannot wedge the global execution
    order.  Runs through quiescence too — that is what levels the lanes
    after the workload stops."""
    thread_id = f"{replica.replica_id}.worker"
    while True:
        yield Timeout(RCC_BALANCE_INTERVAL)
        if replica.recovery.active:
            continue
        actions = replica.engine.balance_actions()
        if actions:
            yield from replica.dispatch(actions, thread_id)
