"""Crash recovery by state transfer (§4.7: checkpoints "help a failed
replica to update itself").

:func:`recovery_loop` pauses consensus participation, asks every peer
for a transfer, adopts the state once f+1 peers agree on its executed
sequence, state digest and history hash, and retries while it lags;
any healthy replica's worker answers with :func:`serve_state_transfer`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.consensus.messages import StateTransferRequest, StateTransferResponse
from repro.core.config import WORK_COSTS
from repro.sim.events import Timeout
from repro.sim.process import Process


class Recovery:
    """A replica's state-transfer job."""

    __slots__ = ("active", "offers", "completed", "loop")

    def __init__(self):
        #: True while fetching state: consensus participation is paused
        self.active = False
        #: (executed sequence, state digest, history hash) -> its offers
        self.offers: Dict[Tuple[int, str, str], list] = {}
        self.completed = 0
        #: the running recovery loop, if any: a replica runs at most one
        self.loop: Optional[Process] = None


def begin(replica) -> None:
    """Fetch missed state.  A loop that is still alive, even one
    confirming that execution resumed after an adoption, keeps the job:
    a second loop would only double the transfer requests."""
    job = replica.recovery
    if job.loop is None or job.loop.finished:
        job.active = True
        job.loop = replica.sim.spawn(
            recovery_loop(replica), name=f"{replica.replica_id}.recovery"
        )


def recovery_loop(replica):
    job = replica.recovery
    ledger = replica.ledger
    retry_delay = max(replica.config.state_transfer_retry, 1)
    for _attempt in range(50):
        if not job.active:
            # adopted a snapshot; confirm normal execution resumed —
            # commits proposed while the transfer was in flight may have
            # left a gap the snapshot predates
            progress_mark = ledger.next_sequence
            yield Timeout(retry_delay)
            if ledger.next_sequence > progress_mark:
                return  # executing again: recovery complete
            job.active = True  # stalled behind a gap: go again
        job.offers = {}
        request = StateTransferRequest(
            replica.replica_id, ledger.next_sequence - 1
        )
        yield from replica.sign_and_queue(
            request, replica.peers, f"{replica.replica_id}.worker",
            scheme=replica.system.replica_scheme,
        )
        yield Timeout(retry_delay)
    job.active = False  # give up gracefully; stay a follower


def serve_state_transfer(replica, message, thread_id: str):
    """Answer a recovering peer (any healthy replica does)."""
    if replica.recovery.active:
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


def absorb_state_response(replica, message) -> bool:
    """Tally one offer; True iff f+1 now match and the state is adopted."""
    job = replica.recovery
    if not job.active:
        return False
    transfer = message.transfer
    if transfer.executed_sequence < replica.ledger.next_sequence:
        return False  # stale offer
    key = (transfer.executed_sequence, transfer.state_digest, transfer.history_hash)
    offers = job.offers.setdefault(key, [])
    offers.append(message)
    if len({offer.sender for offer in offers}) < replica.quorum.f + 1:
        return False
    adopt_state(replica, offers[-1])
    return True


def adopt_state(replica, response) -> None:
    """f+1 peers agree: install the transferred state."""
    transfer = response.transfer
    replica.ledger.adopt(transfer)
    replica.host.adopt(response.executed_keys)
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
    replica.recovery.active = False
    replica.recovery.completed += 1
    replica.system.metrics.counter("recoveries").increment()
    spans = replica.system.spans
    if spans.enabled:
        spans.event(
            replica.sim.now, replica.replica_id, "recovery",
            f"adopted state through {transfer.executed_sequence} "
            f"from {response.sender}",
        )
