"""Multi-primary concurrent consensus (RCC-style).

An :class:`InstanceCoordinator` runs ``m`` *independent* PBFT instances —
each an unmodified :class:`~repro.consensus.pbft.PbftReplica` with its own
view, primary rotation and sequence space — and presents them to the host
replica pipeline as one engine.  Lane ``k``'s replica list is rotated so
its view-0 primary is ``r_k``: with ``m`` lanes, ``m`` replicas act as
primaries concurrently, which removes the single-primary ingest bottleneck
the paper measures in Figures 9 and 16.

The coordinator's job is pure translation:

- **inbound**: protocol messages carry their lane in the envelope
  (``message.instance``); the coordinator dispatches each to the right
  inner engine and rejects out-of-range lanes.
- **outbound**: inner actions are re-tagged with the lane id, and every
  sequence-carrying action (``ExecuteReady``, view-change timers) is
  remapped from the lane's local sequence to the global round-robin
  position (:mod:`repro.multi.unifier`), so the host's *single* ordered
  execution thread, checkpointing and blockchain operate on one dense
  global sequence space and never know how many lanes fed it.

Liveness across lanes:

- A committed batch in one lane arms watchdog view-change timers for
  lanes that have fallen behind, so a crashed or byzantine primary is
  replaced by a view change *in its own lane only* — the other ``m − 1``
  lanes never stall.
- Lane leaders run a balance pass (:meth:`balance_actions`, driven by a
  host timer): when another lane is ahead, the leader commits null
  batches — *skip certificates*, each carrying a full 2f+1 commit proof
  from its lane's normal PBFT rounds — so the round-robin merge never
  wedges on an idle or recovering lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.consensus.base import (
    Action,
    Broadcast,
    CancelViewChangeTimer,
    ExecuteReady,
    NotPrimaryError,
    ProposalError,
    QuorumConfig,
    SendTo,
    StartViewChangeTimer,
)
from repro.consensus.messages import PrePrepare, RequestBatch, make_null_batch
from repro.consensus.pbft import PbftReplica
from repro.multi.unifier import (
    global_sequence,
    instance_of,
    instance_sequence,
    steer_lane,
)


@dataclass(frozen=True)
class MultiProposal:
    """What :meth:`InstanceCoordinator.propose` hands back to the host:
    the *global* sequence (for spans/blocks) plus the lane that took it."""

    sequence: int
    instance: int
    message: PrePrepare


class InstanceCoordinator:
    """m concurrent PBFT instances unified into one global order.

    Implements the :class:`~repro.consensus.base.ConsensusEngine`
    contract, so the replica pipeline drives it like any single-instance
    engine.
    """

    history_chain = False

    #: a lane must lag the committing lane by at least this many full
    #: round-robin rounds before its watchdog view-change timer is armed
    #: (1 round of slack absorbs ordinary scheduling jitter)
    WATCHDOG_LAG_ROUNDS = 2

    #: null batches one balance pass may propose per led lane (bounds the
    #: work a single timer tick injects into the pipeline)
    MAX_SKIPS_PER_BALANCE = 8

    #: watchdog fires landing while a lane's view change is already in
    #: flight are ignored, except every N-th consecutive one, which
    #: escalates to the next view — the rescue keeps liveness when the
    #: replacement primary is itself dead, without letting periodic
    #: watchdogs march a recovering lane through views faster than its
    #: new primary can catch the lane up
    ESCALATE_EVERY = 4

    def __init__(
        self,
        replica_id: str,
        replica_ids: Tuple[str, ...],
        quorum: QuorumConfig,
        num_instances: int,
        sequence_window: int = 100_000,
    ):
        if not 1 <= num_instances <= len(replica_ids):
            raise ValueError(
                f"num_instances must be in [1, {len(replica_ids)}], "
                f"got {num_instances}"
            )
        self.replica_id = replica_id
        self.replica_ids = tuple(replica_ids)
        self._quorum = quorum
        self.num_instances = num_instances
        ids = self.replica_ids
        #: lane k's replica list is rotated so ids[k] is its view-0
        #: primary and view changes walk ids[k+1], ids[k+2], ...
        self.instances: List[PbftReplica] = [
            PbftReplica(
                replica_id, ids[k:] + ids[:k], quorum, sequence_window
            )
            for k in range(num_instances)
        ]
        #: contiguous committed lane-local prefix per lane
        self.frontier: List[int] = [0] * num_instances
        #: committed lane sequences above the frontier (gap tracking)
        self._committed: List[set] = [set() for _ in range(num_instances)]
        #: per-lane commit order as observed locally: lane -> [(lane
        #: sequence, digest)] — the unification oracle's input
        self.commit_log: Dict[int, List[Tuple[int, str]]] = {
            k: [] for k in range(num_instances)
        }
        #: lane sequences already in commit_log (append-once dedup; kept
        #: separate from the frontier machinery, which checkpoints prune)
        self._logged: List[set] = [set() for _ in range(num_instances)]
        self._lane_rr = 0
        #: consecutive watchdog fires observed per lane while its view
        #: change was already running (see ``ESCALATE_EVERY``)
        self._vc_fires: List[int] = [0] * num_instances
        #: lane frontier at each lane's most recent watchdog fire — a
        #: fire only suspects the primary if the lane made *no* progress
        #: since the previous fire (timeout-resets-on-progress)
        self._fire_frontier: List[int] = [0] * num_instances
        #: envelope-level rejects (bad lane id); per-engine rejects live
        #: on the instances
        self.envelope_rejects = 0

    # ------------------------------------------------------------------
    # engine-interface surface the host reads
    # ------------------------------------------------------------------
    @property
    def quorum(self) -> QuorumConfig:
        return self._quorum

    @quorum.setter
    def quorum(self, value: QuorumConfig) -> None:
        # fault-injection hooks (fuzz BUG_REGISTRY) swap engine quorums
        self._quorum = value
        for instance in self.instances:
            instance.quorum = value

    @property
    def view(self) -> int:
        """Monotone progress counter: the sum of lane views (any lane's
        view change bumps it, which is what host-side probes watch)."""
        return sum(instance.view for instance in self.instances)

    @property
    def in_view_change(self) -> bool:
        return any(instance.in_view_change for instance in self.instances)

    @property
    def rejected_messages(self) -> int:
        return self.envelope_rejects + sum(
            instance.rejected_messages for instance in self.instances
        )

    def lanes_led(self) -> List[int]:
        """Lanes this replica currently leads and can propose into."""
        return [
            k
            for k, instance in enumerate(self.instances)
            if instance.is_primary and not instance.in_view_change
        ]

    @property
    def is_primary(self) -> bool:
        """Leads at least one active lane."""
        return bool(self.lanes_led())

    def proposer_of(self, global_seq: int, view: int) -> str:
        """Primary that proposed ``global_seq`` (for block attribution)."""
        lane = instance_of(global_seq, self.num_instances)
        return self.instances[lane].primary_of(view)

    def global_sequence(self, lane: int, sequence: int) -> int:
        return global_sequence(lane, sequence, self.num_instances)

    # ------------------------------------------------------------------
    # client steering
    # ------------------------------------------------------------------
    def steer_instance(self, sender: str, request_id: int) -> int:
        return steer_lane(sender, request_id, self.num_instances)

    def forward_target(self, sender: str, request_id: int) -> str:
        """Replica a non-leading node forwards this request to: the
        current primary of the request's steer lane (or the next view's
        primary while that lane is changing views, so forwards never
        loop back into a wedged leader)."""
        instance = self.instances[self.steer_instance(sender, request_id)]
        view = instance.view + (1 if instance.in_view_change else 0)
        target = instance.primary_of(view)
        if target == self.replica_id and instance.in_view_change:
            target = instance.primary_of(view + 1)
        return target

    # ------------------------------------------------------------------
    # proposing
    # ------------------------------------------------------------------
    def propose(
        self, digest: str, batch: RequestBatch
    ) -> Tuple[MultiProposal, List[Action]]:
        """Propose ``batch`` in one of the lanes this replica leads,
        round-robin across them.  Raises
        :class:`~repro.consensus.base.NotPrimaryError` when no lane is
        available — the host catches it and re-steers the requests."""
        lanes = self.lanes_led()
        if not lanes:
            raise NotPrimaryError(
                f"{self.replica_id} leads no active consensus instance"
            )
        lane = lanes[self._lane_rr % len(lanes)]
        self._lane_rr += 1
        message, actions = self.instances[lane].propose(digest, batch)
        proposal = MultiProposal(
            sequence=global_sequence(lane, message.sequence, self.num_instances),
            instance=lane,
            message=message,
        )
        return proposal, self._translate(lane, actions)

    def balance_actions(self) -> List[Action]:
        """Skip-certificate pass: for each led lane that has fallen behind
        the tallest lane, propose null batches up to that height.  Each
        null batch commits through the lane's ordinary PBFT rounds, so the
        resulting gap-filler carries a full commit proof and the global
        round-robin merge can cross the lane without executing anything."""
        if self.num_instances == 1:
            return []
        target = 0
        for lane, instance in enumerate(self.instances):
            high = max(
                self.frontier[lane],
                max(instance.slots, default=0),
                instance.next_sequence - 1,
            )
            target = max(target, high)
        actions: List[Action] = []
        for lane in self.lanes_led():
            instance = self.instances[lane]
            proposed = 0
            while (
                instance.next_sequence <= target
                and proposed < self.MAX_SKIPS_PER_BALANCE
            ):
                batch = make_null_batch()
                try:
                    _msg, inner = instance.propose(batch.digest, batch)
                except ProposalError:
                    break
                actions.extend(self._translate(lane, inner))
                proposed += 1
        return actions

    # ------------------------------------------------------------------
    # message handling (dispatch by envelope instance id)
    # ------------------------------------------------------------------
    def handle(self, message) -> Optional[List[Action]]:
        lane = message.instance
        if not 0 <= lane < self.num_instances:
            self.envelope_rejects += 1
            return []
        actions = self.instances[lane].handle(message)
        if actions is None:
            return None  # not a PBFT message kind
        return self._translate(lane, actions)

    # ------------------------------------------------------------------
    # host hooks: timers, suspicion, checkpoints, recovery
    # ------------------------------------------------------------------
    def on_view_change_timeout(self, global_seq: int) -> List[Action]:
        lane = instance_of(global_seq, self.num_instances)
        sequence = instance_sequence(global_seq, self.num_instances)
        if sequence <= self.frontier[lane] or sequence in self._committed[lane]:
            self._vc_fires[lane] = 0
            return []  # committed while the timer was in flight
        if self.frontier[lane] > self._fire_frontier[lane]:
            # the lane moved since the last fire: behind, not dead — a
            # recovering lane catching up on skip certificates must not
            # be view-changed out from under its new primary.  (Other
            # lanes' commits keep re-arming the watchdog, and the host's
            # forward probes cover a total stall.)
            self._fire_frontier[lane] = self.frontier[lane]
            self._vc_fires[lane] = 0
            return []
        self._fire_frontier[lane] = self.frontier[lane]
        if self.instances[lane].in_view_change:
            self._vc_fires[lane] += 1
            if self._vc_fires[lane] % self.ESCALATE_EVERY:
                return []  # a rescue is already in flight; don't flap
        else:
            self._vc_fires[lane] = 0
        return self._translate(
            lane, self.instances[lane].on_view_change_timeout(sequence)
        )

    def suspect_primary(self) -> List[Action]:
        """Host-level suspicion (forwarded requests saw no progress at
        all): vote to replace the primaries of the lanes actually holding
        the merge back — those strictly behind the tallest frontier.  A
        healthy lane must never be view-changed because some *other*
        lane's primary died.  When every lane is level (m=1, or a total
        stall), fall back to suspecting every lane we do not lead."""
        tallest = max(self.frontier)
        suspects = [
            lane
            for lane, instance in enumerate(self.instances)
            if not instance.is_primary
            and not instance.in_view_change
            and self.frontier[lane] < tallest
        ]
        if not suspects:
            suspects = [
                lane
                for lane, instance in enumerate(self.instances)
                if not instance.is_primary and not instance.in_view_change
            ]
        actions: List[Action] = []
        for lane in suspects:
            actions.extend(
                self._translate(lane, self.instances[lane].suspect_primary())
            )
        return actions

    def advance_stable(self, global_seq: int) -> int:
        """Checkpoint at *global* ``global_seq`` became stable: advance
        each lane's stable horizon to its share of the global prefix."""
        dropped = 0
        for lane, instance in enumerate(self.instances):
            if global_seq >= lane + 1:
                lane_stable = (global_seq - lane - 1) // self.num_instances + 1
            else:
                lane_stable = 0
            if lane_stable <= 0:
                continue
            dropped += instance.advance_stable(lane_stable)
            if lane_stable > self.frontier[lane]:
                self.frontier[lane] = lane_stable
                self._committed[lane] = {
                    s for s in self._committed[lane] if s > lane_stable
                }
                self._advance_frontier(lane)
        return dropped

    def open_batches(self) -> Iterator[RequestBatch]:
        for instance in self.instances:
            yield from instance.open_batches()

    def absorb_adopted_log(self, log_slice) -> None:
        """State-transfer adoption: fold the adopted (global sequence,
        digest) entries into the per-lane commit logs and frontiers so the
        unification invariant (executed ⊆ unified commits) survives
        recovery and stale watchdog timers disarm."""
        for global_seq, digest in log_slice:
            lane = instance_of(global_seq, self.num_instances)
            self._record_commit(
                lane, instance_sequence(global_seq, self.num_instances), digest
            )

    def clear_view_change_wedges(self) -> None:
        """Recovery adopted a quorum-attested state: the system is live,
        so lone never-quorate suspicions must not wedge any lane."""
        for instance in self.instances:
            instance.in_view_change = False

    # ------------------------------------------------------------------
    # translation lane-local <-> global
    # ------------------------------------------------------------------
    def _record_commit(self, lane: int, sequence: int, digest: str) -> bool:
        """Record a lane commit.  The log append must NOT be gated on the
        frontier: a cluster-wide checkpoint can advance the frontier past
        a slot whose own ExecuteReady is still in flight on this replica
        (2f+1 *other* replicas suffice to stabilise), and that slot still
        executes here — dropping it would leave the executed log claiming
        a commit the log never recorded."""
        if sequence in self._logged[lane]:
            return False
        self._logged[lane].add(sequence)
        self.commit_log[lane].append((sequence, digest))
        if sequence > self.frontier[lane] and sequence not in self._committed[lane]:
            self._committed[lane].add(sequence)
            self._advance_frontier(lane)
        return True

    def _advance_frontier(self, lane: int) -> None:
        committed = self._committed[lane]
        frontier = self.frontier[lane]
        while frontier + 1 in committed:
            frontier += 1
            committed.discard(frontier)
        self.frontier[lane] = frontier

    def _translate(self, lane: int, actions: List[Action]) -> List[Action]:
        """Tag outbound messages with the lane and remap every
        sequence-carrying action to the global round-robin space."""
        m = self.num_instances
        out: List[Action] = []
        for action in actions:
            if isinstance(action, (Broadcast, SendTo)):
                action.message.instance = lane
                out.append(action)
            elif isinstance(action, ExecuteReady):
                digest = action.request.digest or ""
                self._record_commit(lane, action.sequence, digest)
                out.append(
                    ExecuteReady(
                        sequence=global_sequence(lane, action.sequence, m),
                        view=action.view,
                        request=action.request,
                        commit_proof=action.commit_proof,
                        speculative=action.speculative,
                    )
                )
                out.extend(self._watchdogs_for_lagging_lanes(lane))
            elif isinstance(action, StartViewChangeTimer):
                out.append(
                    StartViewChangeTimer(
                        global_sequence(lane, action.sequence, m)
                    )
                )
            elif isinstance(action, CancelViewChangeTimer):
                out.append(
                    CancelViewChangeTimer(
                        global_sequence(lane, action.sequence, m)
                    )
                )
            else:  # EnterView, and future action types
                out.append(action)
        return out

    def _watchdogs_for_lagging_lanes(self, lane: int) -> List[Action]:
        """A commit in ``lane`` proves the deployment is live; arm
        view-change timers for lanes at least ``WATCHDOG_LAG_ROUNDS``
        behind it so a dead primary cannot silently wedge the merge.  The
        host dedups timers by sequence, and each timer's fire-path
        re-checks whether the slot committed meanwhile."""
        m = self.num_instances
        lead = self.frontier[lane]
        actions: List[Action] = []
        for other in range(m):
            if other == lane:
                continue
            behind = lead - self.frontier[other]
            if behind < self.WATCHDOG_LAG_ROUNDS:
                continue
            next_needed = self.frontier[other] + 1
            if next_needed in self._committed[other]:
                continue  # committed out of order; execution will catch up
            actions.append(
                StartViewChangeTimer(global_sequence(other, next_needed, m))
            )
        return actions
