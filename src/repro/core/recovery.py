"""Crash recovery by state transfer (§4.7: checkpoints "help a failed
replica to update itself").

:func:`recovery_loop` pauses consensus participation, asks every peer
for a transfer, adopts the state once f+1 peers agree on its executed
sequence, state digest and history hash, and retries while it lags;
any healthy replica's worker answers with :func:`serve_state_transfer`.
"""

from __future__ import annotations

from repro.consensus.messages import StateTransferRequest, StateTransferResponse
from repro.core.config import WORK_COSTS
from repro.sim.events import Timeout


def recovery_loop(replica):
    retry_delay = max(replica.config.state_transfer_retry, 1)
    for _attempt in range(50):
        if not replica.recovering:
            # adopted a snapshot; confirm normal execution resumed —
            # commits proposed while the transfer was in flight may have
            # left a gap the snapshot predates
            progress_mark = replica.next_exec_sequence
            yield Timeout(retry_delay)
            if replica.next_exec_sequence > progress_mark:
                return  # executing again: recovery complete
            replica.recovering = True  # stalled behind a gap: go again
        replica.recovery_offers = {}
        request = StateTransferRequest(
            replica.replica_id, replica.next_exec_sequence - 1
        )
        yield from replica.sign_and_queue(
            request, replica.peers, f"{replica.replica_id}.worker",
            scheme=replica.system.replica_scheme,
        )
        yield Timeout(retry_delay)
    replica.recovering = False  # give up gracefully; stay a follower


def serve_state_transfer(replica, message, thread_id: str):
    """Answer a recovering peer (any healthy replica does)."""
    if replica.recovering:
        return
    have = message.have_sequence
    if replica.ledger.executed_through <= have:
        return  # nothing to offer
    transfer = replica.ledger.transfer_since(have)
    # building the snapshot costs real CPU proportional to its size
    yield replica.cpu.run(
        WORK_COSTS.execute_op_ns
        + transfer.snapshot_records * WORK_COSTS.snapshot_record_ns,
        thread_id,
    )
    yield from replica.sign_and_queue(
        StateTransferResponse(
            replica.replica_id, transfer, replica.host.executed_keys()
        ),
        [message.sender], thread_id, scheme=replica.system.replica_scheme,
    )


def absorb_state_response(replica, message) -> None:
    if not replica.recovering:
        return
    transfer = message.transfer
    if transfer.executed_sequence < replica.next_exec_sequence:
        return  # stale offer
    key = (transfer.executed_sequence, transfer.state_digest, transfer.history_hash)
    offers = replica.recovery_offers.setdefault(key, [])
    offers.append(message)
    if len({offer.sender for offer in offers}) < replica.quorum.f + 1:
        return
    adopt_state(replica, offers[-1])


def adopt_state(replica, response) -> None:
    """f+1 peers agree: install the transferred state."""
    transfer = response.transfer
    replica.ledger.adopt(transfer)
    replica.host.adopt(response.executed_keys)
    replica.next_exec_sequence = transfer.executed_sequence + 1
    replica.exec_pending = {
        seq: action
        for seq, action in replica.exec_pending.items()
        if seq >= replica.next_exec_sequence
    }
    engine = replica.engine
    # RCC folds the adopted entries into its per-lane commit logs so the
    # unification invariant (executed ⊆ lane commits) holds across
    # recovery
    engine.absorb_adopted_log(transfer.log_slice)
    engine.advance_stable(transfer.executed_sequence)
    # adopting a quorum-attested state is proof the system is live; a
    # lone, never-quorate primary suspicion would otherwise wedge this
    # replica in a view change forever
    engine.clear_view_change_wedges()
    replica.recovering = False
    replica.recoveries_completed += 1
    replica.system.metrics.counter("recoveries").increment()
    spans = replica.system.spans
    if spans.enabled:
        spans.event(
            replica.sim.now, replica.replica_id, "recovery",
            f"adopted state through {transfer.executed_sequence} "
            f"from {response.sender}",
        )
