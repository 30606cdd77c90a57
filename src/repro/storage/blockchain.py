"""The immutable ledger.

Per §2.2, the i-th block is ``B_i = {k, d, v, H(B_{i-1})}``: the sequence
number of the client request (batch), the digest of the request, the view
(identifier of the primary that led consensus) and the hash of the previous
block.  The chain starts at a genesis block holding the hash of the first
primary's identifier.

§4.6 ("Block Generation") replaces the previous-block hash with the 2f+1
commit signatures that consensus already collected — "this acts as a
sufficient proof to guarantee correct order" — trading hash CPU on the
execute-thread for a slightly larger block.  Both certification modes are
implemented; an ablation bench compares them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.hashing import digest_bytes


class CertificationMode(str, enum.Enum):
    """How a block proves it extends the chain correctly."""

    PREV_HASH = "prev-hash"
    COMMIT_CERTIFICATE = "commit-certificate"


class ChainViolation(ValueError):
    """Raised when an appended or validated block breaks chain rules."""


@dataclass(frozen=True)
class Block:
    """One ledger entry covering a committed batch of transactions."""

    sequence: int
    digest: str
    view: int
    proposer: str
    txn_count: int
    prev_hash: Optional[str] = None
    #: (replica_id, commit-signature token bytes) pairs, 2f+1 of them, when
    #: certified by commit certificate instead of prev_hash.
    commit_certificate: Tuple[Tuple[str, bytes], ...] = ()

    def block_hash(self) -> str:
        """Real SHA-256 over the block's canonical representation."""
        canonical = (
            f"{self.sequence}:{self.digest}:{self.view}:{self.proposer}:"
            f"{self.txn_count}:{self.prev_hash}"
        )
        return digest_bytes(canonical.encode("utf-8"))


def make_genesis(first_primary: str) -> Block:
    """The genesis block: "dummy data", e.g. the hash of the identifier of
    the first primary, H(P) (§2.2)."""
    return Block(
        sequence=0,
        digest=digest_bytes(first_primary.encode("utf-8")),
        view=0,
        proposer=first_primary,
        txn_count=0,
        prev_hash=None,
    )


class Blockchain:
    """A replica's copy of the ledger.

    Appends enforce dense sequence numbers and, in ``PREV_HASH`` mode, the
    hash link; in ``COMMIT_CERTIFICATE`` mode they enforce a quorum-sized
    certificate from distinct signers.  ``validate()`` re-checks the whole
    chain (used by tests and by checkpoint transfer).
    """

    def __init__(
        self,
        first_primary: str,
        mode: CertificationMode = CertificationMode.COMMIT_CERTIFICATE,
        quorum_size: int = 3,
    ):
        self.mode = CertificationMode(mode)
        self.quorum_size = quorum_size
        self.genesis = make_genesis(first_primary)
        self.blocks: List[Block] = [self.genesis]
        self._by_sequence: Dict[int, Block] = {0: self.genesis}
        #: highest sequence dropped by checkpoint GC; the stable checkpoint
        #: attests to everything at or below it
        self.pruned_through = 0

    # ------------------------------------------------------------------
    # building the chain
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Sequence number of the newest block."""
        return self.blocks[-1].sequence

    def head(self) -> Block:
        return self.blocks[-1]

    def append(self, block: Block) -> None:
        """Append after validating against the current head."""
        head = self.head()
        if block.sequence != head.sequence + 1:
            raise ChainViolation(
                f"non-contiguous sequence: head={head.sequence}, "
                f"appending {block.sequence}"
            )
        if self.mode is CertificationMode.PREV_HASH:
            if block.prev_hash != head.block_hash():
                raise ChainViolation(
                    f"block {block.sequence} does not link to head hash"
                )
        else:
            self._check_certificate(block)
        self.blocks.append(block)
        self._by_sequence[block.sequence] = block

    def _check_certificate(self, block: Block) -> None:
        signers = {signer for signer, _token in block.commit_certificate}
        if len(signers) < self.quorum_size:
            raise ChainViolation(
                f"block {block.sequence} certificate has {len(signers)} distinct "
                f"signers, needs {self.quorum_size}"
            )
        if len(signers) != len(block.commit_certificate):
            raise ChainViolation(
                f"block {block.sequence} certificate repeats a signer"
            )

    # ------------------------------------------------------------------
    # queries and validation
    # ------------------------------------------------------------------
    def get(self, sequence: int) -> Optional[Block]:
        return self._by_sequence.get(sequence)

    def validate(self) -> None:
        """Re-validate every link/certificate; raises on the first break.

        The genesis → first-retained-block pair is exempt after checkpoint
        GC: the pruned prefix is attested by the stable checkpoint, not by
        hash links (§4.7).
        """
        for previous, current in zip(self.blocks, self.blocks[1:]):
            across_gc_boundary = (
                previous.sequence == 0
                and self.pruned_through > 0
                and current.sequence == self.pruned_through + 1
            )
            if current.sequence != previous.sequence + 1 and not across_gc_boundary:
                raise ChainViolation(
                    f"gap between {previous.sequence} and {current.sequence}"
                )
            if self.mode is CertificationMode.PREV_HASH:
                if not across_gc_boundary and (
                    current.prev_hash != previous.block_hash()
                ):
                    raise ChainViolation(f"broken hash link at {current.sequence}")
            elif not current.commit_certificate and current.sequence == 0:
                continue
            else:
                self._check_certificate(current)

    def adopt(self, blocks, pruned_through: int) -> None:
        """Replace this chain with a transferred suffix (state transfer).

        ``blocks`` is the contiguous suffix a peer shipped; everything
        before it is attested by the stable checkpoint the snapshot came
        from, exactly like a locally GC'd prefix.
        """
        blocks = list(blocks)
        for previous, current in zip(blocks, blocks[1:]):
            if current.sequence != previous.sequence + 1:
                raise ChainViolation(
                    f"transferred suffix has a gap between "
                    f"{previous.sequence} and {current.sequence}"
                )
        # everything below the suffix is attested by the snapshot we
        # adopted alongside it, exactly like a checkpoint-GC'd prefix
        first_sequence = blocks[0].sequence if blocks else pruned_through + 1
        self.pruned_through = max(
            self.pruned_through, pruned_through, first_sequence - 1
        )
        self.blocks = [self.genesis] + blocks
        self._by_sequence = {0: self.genesis}
        self._by_sequence.update({block.sequence: block for block in blocks})

    def prune_before(self, sequence: int) -> int:
        """Drop blocks older than ``sequence`` (checkpoint GC, §4.7).

        The genesis block is always kept as the chain anchor.  Returns the
        number of blocks dropped.
        """
        keep = [b for b in self.blocks if b.sequence >= sequence or b.sequence == 0]
        dropped = len(self.blocks) - len(keep)
        if dropped:
            self.pruned_through = max(self.pruned_through, sequence - 1)
        self.blocks = keep
        self._by_sequence = {b.sequence: b for b in keep}
        return dropped

    def __len__(self) -> int:
        return len(self.blocks)
