"""A replica's executed state and execute order, shared by execution,
state transfer and the safety checks, with no clock or simulator: the
stages charge the CPU, then call one :class:`Ledger` method per operation.
A state transfer (§4.7) is one :class:`LedgerTransfer`, so no field can be
left behind."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.consensus.base import ExecuteReady
from repro.consensus.zyzzyva import GENESIS_HISTORY, extend_history
from repro.core.host import apply_operations
from repro.crypto.hashing import digest_bytes
from repro.storage.blockchain import Block, Blockchain, CertificationMode
from repro.storage.memstore import InMemoryKVStore
from repro.storage.sqlstore import SqliteKVStore


class LedgerTransfer(NamedTuple):
    """A peer's executed state past the requester's watermark."""

    executed_sequence: int
    state_digest: str
    history_hash: str
    log_slice: Tuple[Tuple[int, str], ...]
    blocks: Tuple[Block, ...]
    snapshot: object  # None when state is not applied
    snapshot_records: int  # the whole logical table, however little was copied
    pruned_through: int


class Ledger:
    """The record store, the chain (§2.2, §4.6), the executed ``(sequence,
    digest)`` log, the state digest, Zyzzyva's history hash, this replica's
    checkpoint attestations, with ``record_completions`` the exactly-once
    oracle's executed request keys, and the execute order (§4.5–§4.6)."""

    def __init__(self, config, replica_ids: Sequence[str], quorum_size: int,
                 history_chain: bool):
        memory = config.storage_backend == "memory"
        self.store = InMemoryKVStore() if memory else SqliteKVStore()
        self.chain = Blockchain(replica_ids[0], config.certification, quorum_size)
        #: signers of a synthesised certificate (see :meth:`record`)
        self._replica_ids = tuple(replica_ids)
        self._apply_state = config.apply_state
        self._history_chain = history_chain
        self.executed_log: List[Tuple[int, str]] = []
        #: checkpoint sequence -> the state digest this replica attested
        self.checkpoint_digests: Dict[int, str] = {}
        #: (sequence, request keys) per batch that executed any
        self.executed_requests = [] if config.record_completions else None
        self.state_digest = digest_bytes(b"initial-state")
        self.history_hash = GENESIS_HISTORY
        #: the execute cursor, and the committed batches waiting for it
        self.next_sequence = 1
        self.waiting: Dict[int, ExecuteReady] = {}

    @property
    def executed_through(self) -> int:
        """The highest sequence executed, from the log: the execute cursor
        moves before the batch's CPU charge, so a transfer cut at the
        cursor would leave its adopter a permanent gap in the log."""
        log = self.executed_log
        return log[-1][0] if log else 0

    @property
    def committed_through(self) -> int:
        """The highest sequence committed here, executed or not."""
        return max(self.next_sequence - 1, max(self.waiting, default=0))

    @property
    def ready(self) -> bool:
        """Whether the next sequence in order has committed."""
        return self.next_sequence in self.waiting

    def commit(self, action: ExecuteReady) -> Tuple[bool, bool]:
        """Take a committed batch, unless it is a replay at or below the
        cursor or already waiting; returns (taken, :attr:`ready`)."""
        sequence = action.sequence
        taken = sequence >= self.next_sequence and sequence not in self.waiting
        if taken:
            self.waiting[sequence] = action
        return taken, self.ready

    def take_next(self) -> ExecuteReady:
        """Pop the next commit in order (:attr:`ready` must hold) and move
        the cursor past it."""
        self.next_sequence += 1
        return self.waiting.pop(self.next_sequence - 1)

    def record(self, action: ExecuteReady, proposer: str, fresh: Sequence) -> None:
        """Execute the batch ``action`` carries: apply its ``fresh``
        requests (those not executed before), append its block and extend
        the logs and digests, all at once."""
        batch = action.request
        digest = batch.digest or ""
        if self._apply_state:
            apply_operations(self.store, fresh)
        chain = self.chain
        prev_hash, certificate = None, tuple(action.commit_proof)
        if chain.mode is CertificationMode.PREV_HASH:
            prev_hash, certificate = chain.head().block_hash(), ()
        elif len({signer for signer, _ in certificate}) < chain.quorum_size:
            # speculative (Zyzzyva) or degenerate runs have no commit
            # certificate; synthesise the quorum attestation the chain
            # expects from the accepted order
            certificate = tuple(
                (rid, b"speculative") for rid in self._replica_ids[:chain.quorum_size]
            )
        chain.append(Block(
            sequence=action.sequence, digest=digest, view=action.view,
            proposer=proposer, txn_count=batch.txn_count,
            prev_hash=prev_hash, commit_certificate=certificate,
        ))
        if self.executed_requests is not None and fresh:
            self.executed_requests.append((
                action.sequence,
                tuple((request.sender, request.request_id) for request in fresh),
            ))
        if self._history_chain:
            # h_n = H(h_{n-1} || d_n)
            self.history_hash = extend_history(self.history_hash, digest)
        self.executed_log.append((action.sequence, digest))
        self.state_digest = digest_bytes(
            f"{self.state_digest}|{batch.digest}".encode("utf-8")
        )

    def attest(self, sequence: int) -> str:
        """Record and return the state digest of a checkpoint vote."""
        self.checkpoint_digests[sequence] = self.state_digest
        return self.state_digest

    def prune(self, horizon: int) -> None:
        """Drop the chain's blocks below a stable checkpoint's horizon."""
        self.chain.prune_before(horizon)

    def transfer_since(self, have: int) -> LedgerTransfer:
        """What a peer that executed through ``have`` needs to catch up."""
        snapshot = self.store.snapshot() if self._apply_state else None
        return LedgerTransfer(
            executed_sequence=self.executed_through,
            state_digest=self.state_digest,
            history_hash=self.history_hash,
            log_slice=tuple(e for e in self.executed_log if e[0] > have),
            blocks=tuple(b for b in self.chain.blocks if b.sequence > have),
            snapshot=snapshot,
            snapshot_records=0 if snapshot is None else self.store.size(),
            pruned_through=self.chain.pruned_through,
        )

    def adopt(self, transfer: LedgerTransfer) -> None:
        """Install a transferred state that f+1 peers agree on; execution
        resumes just past it."""
        if transfer.snapshot is not None:
            self.store.restore(transfer.snapshot)
        self.executed_log.extend(transfer.log_slice)
        self.state_digest = transfer.state_digest
        self.history_hash = transfer.history_hash
        if transfer.blocks:
            self.chain.adopt(transfer.blocks, transfer.pruned_through)
        self.next_sequence = transfer.executed_sequence + 1
        for sequence in [s for s in self.waiting if s < self.next_sequence]:
            del self.waiting[sequence]
