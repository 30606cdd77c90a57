"""Crash recovery by state transfer (§4.7: checkpoints "help a failed
replica to update itself").

:func:`recovery_loop` pauses consensus participation, asks every peer
for a transfer, adopts the state once f+1 peers agree on (executed
sequence, state digest), and retries while the replica still lags; any
healthy replica's worker answers with :func:`serve_state_transfer`.
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
    # derive the watermark from the log, not next_exec_sequence: the
    # counter is bumped before the execute-thread's CPU charge, so
    # mid-execution it claims a sequence whose log entry and state
    # mutation have not happened yet — a recovering peer adopting that
    # torn snapshot would be left with a permanent gap in its log
    executed_log = replica.executed_log
    executed = executed_log[-1][0] if executed_log else 0
    if executed <= have:
        return  # nothing to offer
    log_slice = tuple(entry for entry in executed_log if entry[0] > have)
    store = replica.store
    snapshot = None
    snapshot_records = 0
    if replica.config.apply_state:
        snapshot = store.snapshot()
        if snapshot is not None:
            # the modelled snapshot is the whole logical table, however
            # little of it the copy-on-write store had to copy
            snapshot_records = store.size()
    response = StateTransferResponse(
        replica.replica_id,
        executed_sequence=executed,
        state_digest=replica.state_digest,
        log_slice=log_slice,
        blocks=replica.chain.suffix_since(have),
        snapshot=snapshot,
        snapshot_records=snapshot_records,
        pruned_through=replica.chain.pruned_through,
        executed_keys=replica.host.executed_keys(),
    )
    # building the snapshot costs real CPU proportional to its size
    yield replica.cpu.run(
        WORK_COSTS.execute_op_ns
        + snapshot_records * WORK_COSTS.snapshot_record_ns,
        thread_id,
    )
    yield from replica.sign_and_queue(
        response, [message.sender], thread_id,
        scheme=replica.system.replica_scheme,
    )


def absorb_state_response(replica, message) -> None:
    if not replica.recovering:
        return
    if message.executed_sequence < replica.next_exec_sequence:
        return  # stale offer
    key = (message.executed_sequence, message.state_digest)
    offers = replica.recovery_offers.setdefault(key, [])
    offers.append(message)
    if len({offer.sender for offer in offers}) < replica.quorum.f + 1:
        return
    adopt_state(replica, offers[-1])


def adopt_state(replica, response) -> None:
    """f+1 peers agree: install the transferred state."""
    if response.snapshot is not None:
        replica.store.restore(response.snapshot)
    replica.host.adopt(response.executed_keys)
    replica.executed_log.extend(response.log_slice)
    replica.state_digest = response.state_digest
    replica.next_exec_sequence = response.executed_sequence + 1
    replica.exec_pending = {
        seq: action
        for seq, action in replica.exec_pending.items()
        if seq >= replica.next_exec_sequence
    }
    if response.blocks:
        replica.chain.adopt(response.blocks, response.pruned_through)
    engine = replica.engine
    # RCC folds the adopted entries into its per-lane commit logs so the
    # unification invariant (executed ⊆ lane commits) holds across
    # recovery
    engine.absorb_adopted_log(response.log_slice)
    engine.advance_stable(response.executed_sequence)
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
            f"adopted state through {response.executed_sequence} "
            f"from {response.sender}",
        )
