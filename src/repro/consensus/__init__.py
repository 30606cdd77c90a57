"""BFT consensus protocols: PBFT, Zyzzyva and PoE.

Protocol logic is written as message-driven state machines
(:class:`~repro.consensus.pbft.PbftReplica`,
:class:`~repro.consensus.zyzzyva.ZyzzyvaReplica`,
:class:`~repro.consensus.poe.PoeReplica`, and RCC's
:class:`~repro.multi.coordinator.InstanceCoordinator` over m PBFT lanes)
that return *actions* (send, broadcast, execute, timers) rather than
performing I/O.  All four implement one contract,
:class:`~repro.consensus.base.ConsensusEngine` (``propose``, ``handle``,
roles and host hooks); :mod:`repro.engines` maps protocol names to them.
The replica pipeline (:mod:`repro.core`) charges simulated CPU for each
handled message and routes the actions; tests drive the state machines
directly, with no simulator, to check safety properties.

Quorum arithmetic follows the paper (§2.1): ``n ≥ 3f + 1``; a replica is
*prepared* after 2f matching ``Prepare`` messages and *committed* after
2f+1 matching ``Commit`` messages; clients accept f+1 matching responses.
Zyzzyva's fast path instead needs all ``3f + 1`` speculative responses at
the client, falling back to a 2f+1 commit certificate.
"""

from repro.consensus.base import (
    Action,
    Broadcast,
    ConsensusEngine,
    ExecuteReady,
    NotPrimaryError,
    ProposalError,
    QuorumConfig,
    SendTo,
    StartViewChangeTimer,
    CancelViewChangeTimer,
    ViewChangeInProgress,
)
from repro.consensus.messages import (
    Checkpoint,
    ClientRequest,
    ClientResponse,
    Commit,
    CommitCertificate,
    LocalCommit,
    NewView,
    OrderRequest,
    Prepare,
    PrePrepare,
    SpecResponse,
    ViewChange,
)
from repro.consensus.pbft import PbftReplica
from repro.consensus.poe import PoeReplica
from repro.consensus.safety import (
    check_bounded_liveness,
    check_checkpoint_consistency,
    check_execution_consistency,
)
from repro.consensus.zyzzyva import ZyzzyvaReplica

__all__ = [
    "Action",
    "Broadcast",
    "CancelViewChangeTimer",
    "Checkpoint",
    "ClientRequest",
    "ClientResponse",
    "Commit",
    "CommitCertificate",
    "ConsensusEngine",
    "ExecuteReady",
    "LocalCommit",
    "NewView",
    "NotPrimaryError",
    "OrderRequest",
    "PbftReplica",
    "PoeReplica",
    "Prepare",
    "PrePrepare",
    "ProposalError",
    "QuorumConfig",
    "SendTo",
    "SpecResponse",
    "StartViewChangeTimer",
    "ViewChange",
    "ViewChangeInProgress",
    "ZyzzyvaReplica",
    "check_bounded_liveness",
    "check_checkpoint_consistency",
    "check_execution_consistency",
]
