"""The replica's execute and checkpoint stages (§4.5–§4.7).

- ``execute`` thread (:func:`execute_loop`): strictly ordered execution.
  Committed batches can finish consensus out of order (§4.5); the
  execute-thread takes them from the ledger in sequence order, parked
  until the next one commits — the simulation-level equivalent of parking
  on queue ``txn_id % QC`` (§4.6).  It applies operations to the record
  store (once per client request, however often the request was
  proposed) and appends a block, both in the replica's ledger, answers
  clients, and emits checkpoints every Δ transactions.
- ``checkpoint`` thread (:func:`checkpoint_loop`): collects checkpoint
  votes; at 2f+1 identical votes it advances the stable checkpoint and
  garbage-collects old slots, blocks and request keys (§4.7).

With ``consensus_enabled=False`` the batch-threads instead run
:func:`upper_bound_loop`, the Fig. 7 responder that verifies, executes
and replies with no ordering at all.
"""

from __future__ import annotations

from typing import Dict, List

from repro.consensus.base import ExecuteReady, SendTo
from repro.consensus.messages import (
    Checkpoint, ClientResponse, RequestBatch, SpecResponse,
)
from repro.core import recovery
from repro.core.config import WORK_COSTS
from repro.core.host import apply_operations, execution_charge
from repro.crypto.hashing import digest_cost
from repro.sim.events import SimEvent
from repro.storage.blockchain import CertificationMode


# -- ordered execution (§4.5–§4.6) -----------------------------------------
class Executor:
    """Who runs the ledger's next commit."""

    __slots__ = ("parked", "draining")

    def __init__(self):
        #: the parked execute-thread's wake-up
        self.parked = None
        #: a thread is executing: at most one batch executes at a time
        self.draining = False


def wake(replica, thread_id: str):
    """The next commit in order is waiting, after a commit or a state
    adoption: trigger the parked execute-thread, or with
    ``execute_threads=0`` drain on the calling thread."""
    if not replica.config.execute_threads:
        yield from drain_executions(replica, thread_id)
    elif replica.executor.parked is not None:
        event, replica.executor.parked = replica.executor.parked, None
        event.trigger(None)


def execute_loop(replica):
    thread_id = f"{replica.replica_id}.execute"
    executor = replica.executor
    while True:
        yield from drain_executions(replica, thread_id)
        # park until the next-in-order batch commits — the QC-queue
        # trick means no polling and no dequeue-requeue churn
        event = executor.parked = SimEvent(replica.sim)
        yield event


def drain_executions(replica, thread_id: str):
    """Execute commits in order; a thread that finds another draining
    leaves them to it."""
    executor = replica.executor
    if executor.draining:
        return
    executor.draining = True
    ledger = replica.ledger
    while ledger.ready:
        yield from execute_batch(replica, ledger.take_next(), thread_id)
    executor.draining = False


def execute_batch(replica, action: ExecuteReady, thread_id: str):
    config = replica.config
    batch: RequestBatch = action.request
    # execution is in order, so this releases every consensus instance at
    # or below the sequence from the admission budget
    replica.admission.on_execute(action.sequence)

    # phase 1: charge all CPU up front
    cost, ops_executed = execution_charge(config, batch.requests)
    cost += WORK_COSTS.execute_fixed_ns
    if config.certification is CertificationMode.PREV_HASH:
        # traditional chaining: hash the previous block (the costly
        # design that §4.6's commit-certificate blocks avoid)
        cost += digest_cost(256)
    cost += WORK_COSTS.block_create_ns
    if replica.engine.history_chain:
        cost += digest_cost(96)  # history extension
    yield replica.cpu.run(cost, thread_id)

    # phase 2: mutate everything atomically (one simulated instant) so a
    # run cut off mid-batch never leaves state ahead of the log.
    # Exactly-once: a request this replica already executed (proposed
    # again in another RCC lane, or re-admitted by a later view's primary)
    # is charged above but has no effect — every honest replica skips the
    # same ones, as they execute the same order — and is answered again.
    fresh = replica.host.executed(batch.requests)
    txns_executed = batch.txn_count
    if fresh is not batch.requests:
        txns_executed = sum(len(request.txns) for request in fresh)
        ops_executed = sum(txn.op_count for request in fresh for txn in request.txns)
    proposer = replica.engine.proposer_of(action.sequence, action.view)
    replica.ledger.record(action, proposer, fresh)
    spans = replica.system.spans
    if spans.enabled:
        spans.stamp_sequence(action.sequence, "execute", replica.sim.now)
        spans.event(
            replica.sim.now, replica.replica_id, "execute",
            f"seq={action.sequence} txns={batch.txn_count} "
            f"digest={str(batch.digest)[:12]}",
        )
    metrics = replica.system.metrics
    metrics.counter("replica_txns_executed").increment(txns_executed)
    metrics.counter("replica_ops_executed").increment(ops_executed)
    # the batch's message and transaction objects return to their pools
    # once executed (§4.8)
    replica.message_pool.release_bulk(1)
    replica.txn_pool.release_bulk(batch.txn_count)

    if not batch.is_null:
        yield from respond_to_clients(replica, action, batch, thread_id)

    if replica.checkpoints.is_checkpoint_sequence(action.sequence):
        yield from emit_checkpoint(replica, action.sequence, thread_id)

    if replica.consensus_token is not None and replica.is_primary:
        replica.consensus_token.put_nowait(None)


def respond_to_clients(replica, action, batch: RequestBatch, thread_id: str):
    """One response message per client group with requests in the batch."""
    response_ns = WORK_COSTS.response_create_ns
    by_group: Dict[str, List[int]] = {}
    for request in batch.requests:
        by_group.setdefault(request.sender, []).append(request.request_id)
        # answered requests leave the per-client admission budget (no-op
        # on backups, which never admitted them)
        replica.admission.release_client(request.sender)
    for group, request_ids in by_group.items():
        fields = (
            replica.replica_id, tuple(request_ids), action.view,
            action.sequence, batch.digest or "",
        )
        if action.speculative:
            message = SpecResponse(*fields, replica.ledger.history_hash)
        else:
            message = ClientResponse(*fields)
        yield replica.cpu.run(response_ns, thread_id)
        # client-bound messages go through the adversary too — a byzantine
        # replica's power includes lying to clients, and policies like
        # ConflictingVoter corrupt response digests to deny Zyzzyva's
        # all-n fast path
        yield from replica.dispatch([SendTo(group, message)], thread_id)


# -- checkpoints (§4.7) ----------------------------------------------------
def emit_checkpoint(replica, sequence: int, thread_id: str):
    state_digest = replica.ledger.attest(sequence)
    yield replica.cpu.run(digest_cost(4096), thread_id)
    message = Checkpoint(
        replica.replica_id,
        sequence,
        state_digest,
        blocks_included=replica.config.checkpoint_batches,
    )
    yield from replica.sign_and_queue(
        message, replica.peers, thread_id, scheme=replica.system.replica_scheme
    )
    # our own vote counts too
    record_checkpoint_vote(replica, sequence, state_digest, replica.replica_id)


def checkpoint_loop(replica):
    thread_id = f"{replica.replica_id}.checkpoint"
    vote_ns = WORK_COSTS.checkpoint_vote_ns
    scheme = replica.system.replica_scheme
    while True:
        message = yield replica.checkpoint_queue.get()
        yield replica.cpu.run(scheme.verify_cost(message.wire_bytes()), thread_id)
        if not replica.authentic(message, scheme):
            continue
        yield replica.cpu.run(vote_ns, thread_id)
        record_checkpoint_vote(
            replica, message.sequence, message.state_digest, message.sender
        )


def record_checkpoint_vote(replica, sequence, digest, voter) -> None:
    checkpoints = replica.checkpoints
    if not checkpoints.record_vote(sequence, digest, voter):
        return
    spans = replica.system.spans
    if spans.enabled:
        spans.event(
            replica.sim.now, replica.replica_id, "checkpoint",
            f"stable at {sequence}",
        )
    replica.engine.advance_stable(checkpoints.stable_sequence)
    horizon = checkpoints.gc_horizon()
    if horizon > 0:
        replica.ledger.prune(horizon)
        replica.host.gc()
    # if the cluster's stable point has moved a whole checkpoint interval
    # past our execution point, the commits we are missing have been
    # garbage-collected — only a state transfer can get us back (classic
    # PBFT checkpoint fetch)
    if checkpoints.stable_sequence >= (
        replica.ledger.next_sequence + checkpoints.interval
    ):
        recovery.begin(replica)


# -- Fig. 7 upper-bound mode: no consensus, no ordering --------------------
def upper_bound_loop(replica, thread_id: str):
    """Independent responder thread: verify, (optionally) execute, reply
    straight to the client."""
    config = replica.config
    client_scheme = replica.system.client_scheme
    sequence = 0
    while True:
        request = yield replica.batch_queue.get()
        yield replica.cpu.run(
            client_scheme.verify_cost(request.wire_bytes()), thread_id
        )
        if not replica.authentic(request, client_scheme):
            continue
        ops = 0
        if config.execution_enabled:
            cost, ops = execution_charge(config, (request,))
            yield replica.cpu.run(cost, thread_id)
            if config.apply_state:
                apply_operations(replica.ledger.store, (request,))
        sequence += 1
        message = ClientResponse(
            replica.replica_id,
            (request.request_id,),
            view=0,
            sequence=sequence,
            result_digest="upper-bound",
        )
        metrics = replica.system.metrics
        metrics.counter("replica_txns_executed").increment(len(request.txns))
        metrics.counter("replica_ops_executed").increment(ops)
        yield replica.cpu.run(WORK_COSTS.response_create_ns, thread_id)
        yield from replica.sign_and_queue(
            message, [request.sender], thread_id, scheme=client_scheme,
        )
