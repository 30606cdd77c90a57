"""Protocol message types for PBFT and Zyzzyva.

Every type subclasses :class:`repro.net.Message` (the §4.8 base-class
design).  Wire sizes approximate a compact binary encoding; the request
payload (batched transactions) dominates ``PrePrepare``/``OrderRequest``
sizes, while vote messages are small and fixed.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.message import Message
from repro.workloads.transactions import Transaction


class ClientRequest(Message):
    """A client's (possibly batched) transaction submission.

    Per §4.2, "a client can send a burst of transactions as a single
    request message" — the standard configuration submits ``batch_size``
    transactions per request, signed once, which is what lets the primary
    treat each client request as one consensus batch.
    """

    kind = "client-request"

    __slots__ = ("request_id", "txns", "digest", "sequence", "_payload_bytes")

    def __init__(self, sender: str, request_id: int, txns: Tuple[Transaction, ...]):
        super().__init__(sender)
        self.request_id = request_id
        self.txns = txns
        # sized once: every broadcast copy and crypto cost call asks again
        self._payload_bytes = 16 + sum(txn.wire_bytes() for txn in txns)
        #: SHA-256 of the batch string; computed (and paid for) by the
        #: primary's batch-thread, not here.
        self.digest: Optional[str] = None
        #: sequence number assigned by the primary's input-thread
        self.sequence: Optional[int] = None

    @property
    def txn_count(self) -> int:
        return len(self.txns)

    def payload_bytes(self) -> int:
        return self._payload_bytes

    def batch_bytes(self) -> bytes:
        """The single string representation of the whole batch that the
        batch-thread hashes once (§4.3)."""
        return b"|".join(txn.canonical_bytes() for txn in self.txns)

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.request_id, len(self.txns))


class RequestBatch:
    """The unit of consensus: client requests packed by a batch-thread.

    Not itself a network message — it rides inside ``PrePrepare`` /
    ``OrderRequest``.  The batch-thread "first generates a single string
    representation of the whole batch and then hashes this string" (§4.3);
    :meth:`batch_bytes` is that string.
    """

    __slots__ = (
        "requests", "txn_count", "digest", "_payload_bytes", "_batch_bytes",
    )

    def __init__(self, requests: Tuple[ClientRequest, ...]):
        self.requests = requests
        # sized once: the requests are immutable, and every stage that
        # touches the batch asks again
        self.txn_count = sum(len(request.txns) for request in requests)
        self._payload_bytes = 16 + sum(
            request.payload_bytes() for request in requests
        )
        #: SHA-256 over :meth:`batch_bytes`, set by the creating thread
        self.digest: Optional[str] = None
        self._batch_bytes: Optional[bytes] = None

    @property
    def is_null(self) -> bool:
        """Null batches fill sequence gaps after a view change."""
        return not self.requests

    def payload_bytes(self) -> int:
        return self._payload_bytes

    def batch_bytes(self) -> bytes:
        if self._batch_bytes is None:
            self._batch_bytes = b"#".join(
                request.batch_bytes() for request in self.requests
            )
        return self._batch_bytes


#: digest carried by gap-filling null batches
NULL_BATCH_DIGEST = "null-batch"


def make_null_batch() -> RequestBatch:
    batch = RequestBatch(())
    batch.digest = NULL_BATCH_DIGEST
    return batch


class PrePrepare(Message):
    """Primary → backups: proposed order for a request batch (phase 1)."""

    kind = "pre-prepare"

    __slots__ = ("view", "sequence", "digest", "request")

    def __init__(
        self,
        sender: str,
        view: int,
        sequence: int,
        digest: str,
        request: ClientRequest,
    ):
        super().__init__(sender)
        self.view = view
        self.sequence = sequence
        self.digest = digest
        self.request = request

    def payload_bytes(self) -> int:
        return 48 + self.request.payload_bytes()

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.view, self.sequence, self.digest)


class Prepare(Message):
    """Backup → all: agreement with the primary's proposed order (phase 2)."""

    kind = "prepare"

    __slots__ = ("view", "sequence", "digest")

    def __init__(self, sender: str, view: int, sequence: int, digest: str):
        super().__init__(sender)
        self.view = view
        self.sequence = sequence
        self.digest = digest

    def payload_bytes(self) -> int:
        return 48 + 32  # view/sequence fields + digest

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.view, self.sequence, self.digest)


class Commit(Message):
    """Replica → all: the request is prepared at a quorum (phase 3)."""

    kind = "commit"

    __slots__ = ("view", "sequence", "digest")

    def __init__(self, sender: str, view: int, sequence: int, digest: str):
        super().__init__(sender)
        self.view = view
        self.sequence = sequence
        self.digest = digest

    def payload_bytes(self) -> int:
        return 48 + 32

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.view, self.sequence, self.digest)


class ClientResponse(Message):
    """Replica → client: execution results.

    Responses for all of one client's requests executed in the same batch
    are coalesced into a single message (``request_ids``) — the execute
    thread completes a whole batch at once, so per-request messages would
    only multiply identical wire traffic.
    """

    kind = "client-response"

    __slots__ = ("request_ids", "view", "sequence", "result_digest")

    def __init__(
        self,
        sender: str,
        request_ids: Tuple[int, ...],
        view: int,
        sequence: int,
        result_digest: str,
    ):
        super().__init__(sender)
        self.request_ids = request_ids
        self.view = view
        self.sequence = sequence
        self.result_digest = result_digest

    def payload_bytes(self) -> int:
        return 48 + 8 * len(self.request_ids) + 32

    def signable_fields(self) -> tuple:
        return (
            self.kind,
            self.sender,
            self.view,
            self.sequence,
            self.result_digest,
            self.request_ids,
        )


class BusyNack(Message):
    """Replica → client: a request was refused or shed under overload.

    Sent instead of silent queue growth when admission control or a
    bounded queue turns a request away (``reason`` says which limit
    fired).  Clients treat it as a congestion signal: shrink the AIMD
    window, back off, and — for multi-primary RCC — steer away from the
    busy lane (``instance`` in the envelope names it).  NACKs carry no
    execution result, so they are unsigned; clients never act on a NACK
    beyond retrying, which a Byzantine replica could at worst delay.
    """

    kind = "busy-nack"

    __slots__ = ("request_ids", "reason", "retry_after_ns")

    def __init__(
        self,
        sender: str,
        request_ids: Tuple[int, ...],
        reason: str,
        retry_after_ns: int = 0,
    ):
        super().__init__(sender)
        self.request_ids = request_ids
        self.reason = reason
        self.retry_after_ns = retry_after_ns

    def payload_bytes(self) -> int:
        return 16 + 8 * len(self.request_ids) + len(self.reason)

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.request_ids, self.reason)


class Checkpoint(Message):
    """Replica → all: state digest after executing a multiple of Δ requests.

    §4.7: "these checkpoint messages simply include all the blocks
    generated since the last checkpoint", hence the large wire size.
    """

    kind = "checkpoint"

    __slots__ = ("sequence", "state_digest", "blocks_included", "block_bytes")

    def __init__(
        self,
        sender: str,
        sequence: int,
        state_digest: str,
        blocks_included: int,
        block_bytes: int = 200,
    ):
        super().__init__(sender)
        self.sequence = sequence
        self.state_digest = state_digest
        self.blocks_included = blocks_included
        self.block_bytes = block_bytes

    def payload_bytes(self) -> int:
        return 48 + 32 + self.blocks_included * self.block_bytes

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.sequence, self.state_digest)


# ----------------------------------------------------------------------
# state transfer (§4.7 purpose 1: "help a failed replica to update itself
# to the current state")
# ----------------------------------------------------------------------
class StateTransferRequest(Message):
    """Recovering replica → peers: "I have executed through
    ``have_sequence``; send me what I missed"."""

    kind = "state-request"

    __slots__ = ("have_sequence",)

    def __init__(self, sender: str, have_sequence: int):
        super().__init__(sender)
        self.have_sequence = have_sequence

    def payload_bytes(self) -> int:
        return 16

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.have_sequence)


class StateTransferResponse(Message):
    """Peer → recovering replica: a :class:`~repro.core.ledger.LedgerTransfer`
    and the host rules' copy of the executed request keys.

    The snapshot dominates the wire size (the whole record table), which
    is why recovery is expensive and why checkpoints exist to bound it;
    the history hash and the executed request keys are not priced.
    """

    kind = "state-response"

    __slots__ = ("transfer", "executed_keys")

    def __init__(self, sender: str, transfer, executed_keys=None):
        super().__init__(sender)
        self.transfer = transfer
        self.executed_keys = executed_keys

    def payload_bytes(self) -> int:
        return (
            48
            + 40 * len(self.transfer.log_slice)
            + 200 * len(self.transfer.blocks)
            + 120 * self.transfer.snapshot_records
        )

    def signable_fields(self) -> tuple:
        return (
            self.kind,
            self.sender,
            self.transfer.executed_sequence,
            self.transfer.state_digest,
            self.transfer.history_hash,
            len(self.transfer.log_slice),
        )


# ----------------------------------------------------------------------
# view change (PBFT §4.4 of Castro-Liskov; exercised by tests, not by the
# paper's steady-state experiments)
# ----------------------------------------------------------------------
class ViewChange(Message):
    """Replica → all: vote to move to ``new_view`` after a primary timeout.

    ``prepared`` carries (sequence, digest) pairs the sender had prepared
    above its stable checkpoint — the proof the new primary uses to carry
    surviving requests into the new view.
    """

    kind = "view-change"

    __slots__ = ("new_view", "stable_sequence", "prepared")

    def __init__(
        self,
        sender: str,
        new_view: int,
        stable_sequence: int,
        prepared: Tuple[Tuple[int, str], ...],
    ):
        super().__init__(sender)
        self.new_view = new_view
        self.stable_sequence = stable_sequence
        self.prepared = prepared

    def payload_bytes(self) -> int:
        return 48 + 40 * len(self.prepared)

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.new_view, self.stable_sequence,
                self.prepared)


class NewView(Message):
    """New primary → all: proof of 2f+1 view-change votes plus the set of
    (sequence, digest) assignments carried into the new view."""

    kind = "new-view"

    __slots__ = ("new_view", "view_change_voters", "carried")

    def __init__(
        self,
        sender: str,
        new_view: int,
        view_change_voters: Tuple[str, ...],
        carried: Tuple[Tuple[int, str], ...],
    ):
        super().__init__(sender)
        self.new_view = new_view
        self.view_change_voters = view_change_voters
        self.carried = carried

    def payload_bytes(self) -> int:
        return 48 + 16 * len(self.view_change_voters) + 40 * len(self.carried)

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.new_view, self.view_change_voters,
                self.carried)


# ----------------------------------------------------------------------
# Zyzzyva
# ----------------------------------------------------------------------
class OrderRequest(Message):
    """Zyzzyva primary → backups: ordered request with history hash.

    Backups execute speculatively on receipt — there are no prepare or
    commit phases in the fast path.
    """

    kind = "order-request"

    __slots__ = ("view", "sequence", "digest", "history_hash", "request")

    def __init__(
        self,
        sender: str,
        view: int,
        sequence: int,
        digest: str,
        history_hash: str,
        request: ClientRequest,
    ):
        super().__init__(sender)
        self.view = view
        self.sequence = sequence
        self.digest = digest
        self.history_hash = history_hash
        self.request = request

    def payload_bytes(self) -> int:
        return 48 + 32 + self.request.payload_bytes()

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.view, self.sequence, self.digest,
                self.history_hash)


class SpecResponse(Message):
    """Zyzzyva replica → client: speculative execution result.

    The client matches responses on (view, sequence, result digest,
    history hash); the Zyzzyva fast path completes only when all 3f+1
    replicas answer identically.
    """

    kind = "spec-response"

    __slots__ = ("request_ids", "view", "sequence", "result_digest", "history_hash")

    def __init__(
        self,
        sender: str,
        request_ids: Tuple[int, ...],
        view: int,
        sequence: int,
        result_digest: str,
        history_hash: str,
    ):
        super().__init__(sender)
        self.request_ids = request_ids
        self.view = view
        self.sequence = sequence
        self.result_digest = result_digest
        self.history_hash = history_hash

    def payload_bytes(self) -> int:
        return 48 + 8 * len(self.request_ids) + 64

    def signable_fields(self) -> tuple:
        return (
            self.kind,
            self.sender,
            self.view,
            self.sequence,
            self.result_digest,
            self.history_hash,
            self.request_ids,
        )


class CommitCertificate(Message):
    """Zyzzyva client → replicas: 2f+1 matching spec-responses, sent when
    the full 3f+1 fast path did not complete before the client's timer."""

    kind = "commit-certificate"

    __slots__ = ("view", "sequence", "result_digest", "responders")

    def __init__(
        self,
        sender: str,
        view: int,
        sequence: int,
        result_digest: str,
        responders: Tuple[str, ...],
    ):
        super().__init__(sender)
        self.view = view
        self.sequence = sequence
        self.result_digest = result_digest
        self.responders = responders

    def payload_bytes(self) -> int:
        return 48 + 32 + 80 * len(self.responders)  # embedded spec-response sigs

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.view, self.sequence,
                self.result_digest, self.responders)


class LocalCommit(Message):
    """Zyzzyva replica → client: acknowledgement of a commit certificate."""

    kind = "local-commit"

    __slots__ = ("view", "sequence")

    def __init__(self, sender: str, view: int, sequence: int):
        super().__init__(sender)
        self.view = view
        self.sequence = sequence

    def payload_bytes(self) -> int:
        return 48

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender, self.view, self.sequence)
