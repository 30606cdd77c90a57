"""Byzantine replica behaviours.

The paper's threat model (§2.1) is full byzantine failure — "some of which
could be byzantine" — but its experiments only exercise crashes (§5.10).
This module goes further: it wraps a replica's consensus engine with an
*adversary policy* that actively misbehaves, so the test suite can check
that safety (single common order, §4.5–4.6) survives behaviours crashes
never produce:

- ``EquivocatingPrimary`` — proposes different batches to different
  backups at the same sequence number, with a forged digest that does not
  match the batch content (caught by the backups' re-hash check).
- ``TwoFacedPrimary`` — the sharper equivocation: both proposals carry
  *correctly computed* digests over different batches, so no local check
  can reject them — only quorum intersection keeps the cluster in one
  order.  This is the adversary the fuzzer pairs with deliberately
  weakened quorums to prove its oracles catch real divergence.
- ``ConflictingVoter`` — votes (Prepare/Commit/Support) for a corrupted
  digest instead of the proposed one, and corrupts the result digest of
  speculative responses (driving Zyzzyva clients off the fast path).
- ``SilentReplica`` — participates in nothing (fail-stop without the
  crash being visible to the transport).
- ``DelayedReplica`` — withholds every outgoing message for a fixed
  delay, stressing the out-of-order machinery.

Policies transform the *actions* an engine emits, so they compose with
any engine (PBFT, Zyzzyva, PoE).  The framework still prevents identity
forgery — a byzantine replica signs with its own keys (the crypto layer
enforces key custody), exactly the power model of the paper.
"""

from __future__ import annotations

from typing import List

from repro.consensus.base import Action, Broadcast, SendTo
from repro.consensus.messages import (
    Commit,
    OrderRequest,
    Prepare,
    PrePrepare,
    RequestBatch,
    SpecResponse,
)
from repro.consensus.poe import Propose, Support
from repro.crypto.hashing import digest_bytes

#: message types that carry a proposal (primary → backups) for each engine
_PROPOSAL_TYPES = (PrePrepare, OrderRequest, Propose)

#: vote messages whose digest a conflicting voter corrupts, per engine:
#: PBFT prepares/commits, PoE supports
_VOTE_TYPES = (Prepare, Commit, Support)


class AdversaryPolicy:
    """Base policy: pass actions through unchanged (honest)."""

    name = "honest"

    def transform(self, replica, actions: List[Action]) -> List[Action]:
        return actions


class SilentReplica(AdversaryPolicy):
    """Send nothing, ever.  Differs from a crash in that the node still
    receives and processes messages (it can lie later)."""

    name = "silent"

    def transform(self, replica, actions: List[Action]) -> List[Action]:
        return [
            action
            for action in actions
            if not isinstance(action, (Broadcast, SendTo))
        ]


class ConflictingVoter(AdversaryPolicy):
    """Replace the digest in every outgoing vote with a corrupted one.

    Honest replicas bucket votes by digest, so these votes land in a
    separate bucket and can never help the honest digest reach quorum —
    the behaviour the per-digest vote accounting exists to contain.
    Under Zyzzyva (where backups vote by answering clients directly) the
    corrupted ``SpecResponse`` digests deny the all-replica fast path and
    force clients onto the commit-certificate fallback.
    """

    name = "conflicting-voter"

    def transform(self, replica, actions: List[Action]) -> List[Action]:
        transformed: List[Action] = []
        for action in actions:
            message = getattr(action, "message", None)
            corrupted = None
            if isinstance(message, _VOTE_TYPES):
                corrupted = type(message)(
                    message.sender,
                    message.view,
                    message.sequence,
                    "byzantine:" + (message.digest or ""),
                )
            elif isinstance(message, SpecResponse):
                corrupted = SpecResponse(
                    message.sender,
                    message.request_ids,
                    message.view,
                    message.sequence,
                    "byzantine:" + message.result_digest,
                    message.history_hash,
                )
            if corrupted is None:
                transformed.append(action)
                continue
            # a vote only counts in its own consensus instance; keep the
            # lane id so corruption is not just silently rejected routing
            corrupted.instance = message.instance
            if isinstance(action, Broadcast):
                transformed.append(Broadcast(corrupted))
            else:
                transformed.append(SendTo(action.dst, corrupted))
        return transformed


def _forged_proposal(message, digest: str, batch):
    """A copy of a proposal message carrying a different batch/digest.

    Always a *fresh* object, even when digest/batch are unchanged: the
    transport signs messages by mutating ``auth`` in place, so aliasing
    one object across several ``SendTo`` actions would leave every
    destination but the last holding a MAC made out for someone else.
    """
    if isinstance(message, OrderRequest):
        forged = OrderRequest(
            message.sender, message.view, message.sequence, digest,
            message.history_hash, batch,
        )
    else:
        forged = type(message)(
            message.sender, message.view, message.sequence, digest, batch
        )
    forged.instance = message.instance  # equivocate within the same lane
    return forged


def _split_proposal(replica, message, digest: str, batch) -> List[SendTo]:
    """Send the first half of ``replica``'s peers the proposal as made and
    the second half one carrying ``digest`` and ``batch`` instead."""
    peers = replica.peers
    half = len(peers) // 2
    return [
        SendTo(dst, _forged_proposal(message, message.digest, message.request))
        for dst in peers[:half]
    ] + [
        SendTo(dst, _forged_proposal(message, digest, batch))
        for dst in peers[half:]
    ]


class EquivocatingPrimary(AdversaryPolicy):
    """As primary, send half the backups a different proposal.

    Converts each broadcast proposal (``PrePrepare`` / ``OrderRequest`` /
    ``Propose``) into per-destination sends where the second half of the
    replica set receives a proposal whose digest does not match the batch —
    honest backups reject it when they re-hash the batch (§4.3's digest
    check), so at most one of the two proposals can ever prepare.
    """

    name = "equivocating-primary"

    def transform(self, replica, actions: List[Action]) -> List[Action]:
        transformed: List[Action] = []
        for action in actions:
            message = getattr(action, "message", None)
            if isinstance(action, Broadcast) and isinstance(
                message, _PROPOSAL_TYPES
            ):
                transformed.extend(_split_proposal(
                    replica, message,
                    "equivocation:" + message.digest, message.request,
                ))
            else:
                transformed.append(action)
        return transformed


class TwoFacedPrimary(AdversaryPolicy):
    """As primary, propose two *different but internally valid* batches.

    Unlike :class:`EquivocatingPrimary`, both proposals carry digests that
    correctly hash their batch content (the second batch drops the last
    request), so the backups' re-hash check passes on both sides.  Against
    honest quorums this is still safe — two commit quorums intersect in a
    non-faulty replica, so at most one digest can commit per sequence —
    which makes this policy the canonical probe for quorum-arithmetic
    bugs: weaken the quorums and the cluster visibly splits.
    """

    name = "two-faced-primary"

    def transform(self, replica, actions: List[Action]) -> List[Action]:
        transformed: List[Action] = []
        for action in actions:
            message = getattr(action, "message", None)
            if (
                isinstance(action, Broadcast)
                and isinstance(message, _PROPOSAL_TYPES)
                and message.request.requests
            ):
                alt_batch = RequestBatch(message.request.requests[:-1])
                alt_batch.digest = digest_bytes(alt_batch.batch_bytes())
                transformed.extend(_split_proposal(
                    replica, message, alt_batch.digest, alt_batch
                ))
            else:
                transformed.append(action)
        return transformed


class DelayedReplica(AdversaryPolicy):
    """Withhold every outgoing message for ``delay_ns`` before releasing
    it (violates timeliness, not content)."""

    name = "delayed"

    def __init__(self, delay_ns: int):
        self.delay_ns = delay_ns

    def transform(self, replica, actions: List[Action]) -> List[Action]:
        immediate: List[Action] = []
        for action in actions:
            if isinstance(action, (Broadcast, SendTo)):
                replica.sim.schedule(
                    self.delay_ns, self._release, replica, action
                )
            else:
                immediate.append(action)
        return immediate

    @staticmethod
    def _release(replica, action: Action) -> None:
        replica.spawn_dispatch([action], "delayed-release", transformed=True)


_POLICIES = {
    "silent": SilentReplica,
    "conflicting-voter": ConflictingVoter,
    "equivocating-primary": EquivocatingPrimary,
    "two-faced-primary": TwoFacedPrimary,
}

#: every installable policy name ("delayed" takes a ``delay_ns`` kwarg);
#: the fuzz generator samples from this list
POLICY_NAMES = tuple(sorted(_POLICIES)) + ("delayed",)


def make_policy(name: str, **kwargs) -> AdversaryPolicy:
    """Factory: policy by name (``delayed`` takes ``delay_ns``)."""
    if name == "delayed":
        return DelayedReplica(kwargs.get("delay_ns", 0))
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown adversary policy {name!r}") from None
