"""Shared consensus machinery: quorum arithmetic, protocol actions and
the engine contract.

State machines return lists of :class:`Action` objects; the host (the
replica pipeline, or a test harness) interprets them.  Keeping protocol
logic free of I/O and timing makes safety properties directly testable.
Every engine implements :class:`ConsensusEngine`, so the host drives any
protocol without knowing which one it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.consensus.messages import ClientRequest, RequestBatch
from repro.net.message import Message


@dataclass(frozen=True)
class QuorumConfig:
    """Quorum arithmetic for ``n = 3f + 1`` replicas (§2.1)."""

    n: int
    f: int

    def __post_init__(self):
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f}")
        if self.n < 3 * self.f + 1:
            raise ValueError(
                f"n={self.n} cannot tolerate f={self.f} faults (need n >= 3f+1)"
            )

    @classmethod
    def for_replicas(cls, n: int) -> "QuorumConfig":
        """Maximum fault tolerance for ``n`` replicas: f = ⌊(n−1)/3⌋."""
        if n < 4:
            raise ValueError(f"BFT needs at least 4 replicas, got {n}")
        return cls(n=n, f=(n - 1) // 3)

    @property
    def commit_quorum(self) -> int:
        """Commit messages needed to mark a request committed.

        ⌈(n+f+1)/2⌉ — equals the paper's 2f+1 when n = 3f+1 and keeps the
        required property for larger n: any two commit quorums intersect
        in at least f+1 replicas, hence in a non-faulty one.
        """
        return -(-(self.n + self.f + 1) // 2)  # ceil division

    @property
    def prepare_quorum(self) -> int:
        """Prepare messages needed to mark a request prepared (2f when
        n = 3f+1; the pre-prepare itself supplies the missing vote)."""
        return self.commit_quorum - 1

    @property
    def checkpoint_quorum(self) -> int:
        """Identical checkpoint messages for stability."""
        return self.commit_quorum

    @property
    def view_change_quorum(self) -> int:
        return self.commit_quorum

    @property
    def client_response_quorum(self) -> int:
        """Matching responses a PBFT client waits for: f + 1."""
        return self.f + 1

    @property
    def fast_path_quorum(self) -> int:
        """Responses Zyzzyva's fast path needs: all n replicas ("a client
        [must] receive a response from all the 3f+1 replicas", §2.1)."""
        return self.n

    @property
    def certificate_quorum(self) -> int:
        """Spec-responses in a Zyzzyva commit certificate."""
        return self.commit_quorum


# ----------------------------------------------------------------------
# typed proposal failures
# ----------------------------------------------------------------------
class ProposalError(RuntimeError):
    """A proposal could not be made.  Subclasses say why, so a host (or
    the multi-instance coordinator) can catch per-engine and re-steer the
    batch instead of crashing the replica."""


class NotPrimaryError(ProposalError):
    """The engine asked to propose is not the primary of its view."""


class ViewChangeInProgress(ProposalError):
    """The engine is mid view change; proposals resume in the new view."""


# ----------------------------------------------------------------------
# actions
# ----------------------------------------------------------------------
class Action:
    """Base class for protocol outputs."""

    __slots__ = ()


@dataclass(frozen=True)
class SendTo(Action):
    """Send ``message`` to one destination (a replica or a client)."""

    dst: str
    message: Message


@dataclass(frozen=True)
class Broadcast(Action):
    """Send ``message`` to every other replica."""

    message: Message


@dataclass(frozen=True)
class ExecuteReady(Action):
    """Hand a committed (PBFT) or speculatively ordered (Zyzzyva) batch to
    the execution layer.

    ``commit_proof`` carries the (replica, signature-token) pairs of the
    commit quorum so block generation can embed the certificate instead of
    hashing the previous block (§4.6); Zyzzyva's speculative execution has
    no proof yet and passes an empty tuple plus ``speculative=True``.
    """

    sequence: int
    view: int
    request: ClientRequest
    commit_proof: tuple = ()
    speculative: bool = False


@dataclass(frozen=True)
class StartViewChangeTimer(Action):
    """Arm the view-change timer for ``sequence`` if not already armed."""

    sequence: int


@dataclass(frozen=True)
class CancelViewChangeTimer(Action):
    """Disarm the view-change timer for ``sequence`` (request committed)."""

    sequence: int


@dataclass(frozen=True)
class EnterView(Action):
    """Report that the replica moved to ``view`` (host updates routing;
    the new primary's pipeline enables its batch/sequencing stages)."""

    view: int


# ----------------------------------------------------------------------
# the engine contract
# ----------------------------------------------------------------------
class ConsensusEngine:
    """The one interface the replica pipeline drives an engine through.

    :class:`~repro.consensus.pbft.PbftReplica`,
    :class:`~repro.consensus.zyzzyva.ZyzzyvaReplica` and
    :class:`~repro.consensus.poe.PoeReplica` subclass it and inherit the
    single-primary defaults below;
    :class:`~repro.multi.coordinator.InstanceCoordinator` implements the
    same members over its ``num_instances`` lanes.

    Proposing and message handling:

    - ``propose(digest, batch) -> (proposal, actions)``: assign the
      engine's next sequence to ``batch``.  Raises
      :class:`NotPrimaryError` (or another :class:`ProposalError`) when
      the engine cannot propose; the host re-steers the requests.
    - ``handle(message) -> actions``: feed one verified protocol message
      to the engine; ``None`` means the engine does not speak that kind.

    Roles and routing: ``is_primary`` (may propose now; on the RCC
    coordinator "leads an active lane"), ``forward_target(sender,
    request_id)`` (where a non-primary forwards a client request),
    ``steer_instance(sender, request_id)`` (the lane a busy-nack names),
    ``proposer_of(sequence, view)`` (block attribution) and
    ``global_sequence(lane, sequence)`` (the execution-order sequence of
    a lane-local one).

    Host hooks: ``advance_stable(sequence)`` (checkpoint stable),
    ``open_batches()`` (every batch the engine still holds above its
    stable checkpoint: proposed, committed or carried into the current
    view — a new primary skips their requests when it re-admits the
    ones it forwarded; an engine that never changes view holds none it
    needs to report),
    ``on_view_change_timeout(sequence)`` and ``suspect_primary()``
    (return view-change actions), ``absorb_adopted_log(log_slice)`` and
    ``clear_view_change_wedges()`` (after a state-transfer adoption).

    Attributes: ``view``, ``in_view_change``, ``rejected_messages``,
    ``num_instances`` (lanes; above 1 the host runs a periodic
    ``balance_actions()`` pass) and ``history_chain`` (the host charges
    and extends a Zyzzyva history hash per proposed and executed batch).
    """

    #: message kind -> handler function; each engine fills its own
    _HANDLERS: Dict[str, Callable] = {}
    history_chain = False
    num_instances = 1
    in_view_change = False

    def __init__(
        self,
        replica_id: str,
        replica_ids: Tuple[str, ...],
        quorum: QuorumConfig,
        sequence_window: int = 100_000,
    ):
        if replica_id not in replica_ids:
            raise ValueError(f"{replica_id!r} not in replica set")
        if len(replica_ids) != quorum.n:
            raise ValueError(
                f"replica set size {len(replica_ids)} != quorum n {quorum.n}"
            )
        self.replica_id = replica_id
        self.replica_ids = tuple(replica_ids)
        self.quorum = quorum
        self.sequence_window = sequence_window
        self.view = 0
        self.stable_sequence = 0
        #: statistics the host surfaces in experiment reports
        self.rejected_messages = 0

    def primary_of(self, view: int) -> str:
        return self.replica_ids[view % len(self.replica_ids)]

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.replica_id

    def _require_primary(self) -> None:
        if not self.is_primary:
            raise NotPrimaryError(
                f"{self.replica_id} is not primary of view {self.view}"
            )

    def _in_window(self, sequence: int) -> bool:
        return (
            self.stable_sequence < sequence
            <= self.stable_sequence + self.sequence_window
        )

    def handle(self, message: Message) -> Optional[List[Action]]:
        handler = self._HANDLERS.get(message.kind)
        if handler is None:
            return None
        return handler(self, message)

    def forward_target(self, sender: str, request_id: int) -> str:
        return self.primary_of(self.view)

    def steer_instance(self, sender: str, request_id: int) -> int:
        return 0

    def proposer_of(self, sequence: int, view: int) -> str:
        return self.primary_of(view)

    def global_sequence(self, lane: int, sequence: int) -> int:
        return sequence

    def open_batches(self) -> Iterable[RequestBatch]:
        return ()

    def on_view_change_timeout(self, sequence: int) -> List[Action]:
        return []

    def suspect_primary(self) -> List[Action]:
        return []

    def absorb_adopted_log(self, log_slice) -> None:
        pass

    def clear_view_change_wedges(self) -> None:
        pass
