"""The pipelined replica (§4.1–§4.8, Figures 6a/6b): wiring and dispatch.

:meth:`Replica.start` runs the stages as simulated threads competing for
the replica's cores: input, batch, worker and output
(:mod:`repro.core.stages`), execute and checkpoint
(:mod:`repro.core.execution`), and state transfer after a crash heals
(:mod:`repro.core.recovery`).  The :class:`Replica` holds the queues and
state they share (executed state in a :class:`~repro.core.ledger.Ledger`),
and what every stage calls: admission at the primary's edge (decided by
:class:`~repro.core.host.HostRules`), action dispatch, and the
view-change timers.  A replica that a view change makes primary
proposes the requests it had forwarded at once (``_carry_over``).

``batch_threads=0`` or ``execute_threads=0`` folds those stages into the
worker thread — the degenerate pipelines of the Fig. 8/9 study.  The
engine is driven only through the
:class:`~repro.consensus.base.ConsensusEngine` contract, so every stage
is the same for PBFT, Zyzzyva, PoE and multi-primary RCC.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from repro.consensus.base import (
    Broadcast, CancelViewChangeTimer, EnterView, ExecuteReady, QuorumConfig,
    SendTo, StartViewChangeTimer,
)
from repro.consensus.messages import BusyNack, ClientRequest
from repro.core import execution, recovery, stages
from repro.core.config import WORK_COSTS
from repro.core.host import DUPLICATE, HostRules
from repro.core.ledger import Ledger
from repro.engines import ENGINES
from repro.flow import AdmissionController, FlowStats
from repro.net.message import Message
from repro.sim.events import Timer
from repro.sim.queues import SimPriorityQueue, SimQueue
from repro.sim.resources import CpuScheduler
from repro.storage.bufferpool import BufferPool
from repro.storage.checkpoints import CheckpointStore

#: message objects each replica's buffer pool keeps for reuse (§4.8)
BUFFER_POOL_CAPACITY = 4_096


class Replica:
    """One replica node: pipeline, consensus engine, ledger and state."""

    def __init__(self, system, replica_id: str):
        self.system = system
        self.config = system.config
        self.sim = system.sim
        self.replica_id = replica_id
        config = self.config

        self.endpoint = system.network.register(replica_id)
        self.cpu = CpuScheduler(self.sim, config.cores_per_replica)
        system.metrics.register_resettable(self.cpu)

        # -- consensus engine ------------------------------------------
        quorum = QuorumConfig(n=config.num_replicas, f=config.f)
        self.quorum = quorum
        replica_ids = system.replica_ids
        #: every other replica, in id order: the receivers of a broadcast
        self.peers: Tuple[str, ...] = tuple(
            rid for rid in replica_ids if rid != replica_id
        )
        self.engine = ENGINES[config.protocol].replica(
            replica_id, replica_ids, quorum, config.num_primaries
        )

        # -- overload protection (repro.flow) and the host rules ---------
        self.flow = FlowStats()
        self.admission = AdmissionController(
            max_inflight=config.admission_max_inflight,
            max_per_client=config.admission_max_per_client,
        )
        self.host = HostRules(self.admission, 4 * config.num_clients)

        # -- queues between stages --------------------------------------
        self.batch_queue = SimQueue(
            self.sim,
            f"{replica_id}.batch-q",
            capacity=config.batch_queue_capacity,
            policy=config.queue_policy,
            on_shed=self._on_batch_shed,
        )
        # the protocol queues are unbounded: shedding a quorum vote would
        # break liveness.  Protocol messages outrank client requests so
        # that, in the 0B degenerate pipeline where the worker also
        # batches, a backlog of unverified client requests cannot starve
        # quorum progress.
        self.work_queue = SimPriorityQueue(self.sim, f"{replica_id}.work-q")
        self.checkpoint_queue = SimQueue(self.sim, f"{replica_id}.ckpt-q")
        self.output_queues = [
            SimQueue(self.sim, f"{replica_id}.out-q{i}")
            for i in range(stages.OUTPUT_THREADS)
        ]
        #: destination -> its output queue (a pure function of the name)
        self._output_queue_for: Dict[str, SimQueue] = {}

        # -- executed state and its execute order (§4.6) -------------------
        self.ledger = Ledger(
            config, replica_ids, quorum.commit_quorum, self.engine.history_chain
        )
        self.checkpoints = CheckpointStore(
            quorum_size=quorum.checkpoint_quorum,
            interval=config.checkpoint_batches,
        )
        self.executor = execution.Executor()

        # -- buffer pools (§4.8): message objects and transaction objects
        self.message_pool = BufferPool(
            BUFFER_POOL_CAPACITY, enabled=config.buffer_pool
        )
        self.txn_pool = BufferPool(
            min(BUFFER_POOL_CAPACITY * max(1, config.batch_size), 500_000),
            enabled=config.buffer_pool,
        )

        #: out-of-order ablation: a capacity-1 token gate (§4.5)
        self.consensus_token: Optional[SimQueue] = None
        if not config.out_of_order:
            self.consensus_token = SimQueue(
                self.sim, f"{replica_id}.token", capacity=1
            )
            self.consensus_token.put_nowait(None)

        # -- timers -------------------------------------------------------
        self._vc_timers: Dict[int, Timer] = {}
        self._forward_probe: Optional[Tuple[int, int]] = None

        # -- statistics ------------------------------------------------------
        self.invalid_messages = 0
        self.forwarded_requests = 0

        #: byzantine behaviour policy (None = honest); transforms outgoing
        #: actions — see :mod:`repro.core.byzantine`
        self.adversary = None

        #: crash recovery by state transfer (§4.7)
        self.recovery = recovery.Recovery()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start every pipeline thread."""
        config = self.config
        name = self.replica_id
        spawn = self.sim.spawn
        # a callback stage schedules its own start hop and is then held
        # only by the queue or CPU it waits on
        for i in range(config.input_threads):
            stages.InputStage(self, i)
        for i in range(config.batch_threads):
            spawn(stages.batch_loop(self, i), name=f"{name}.batch-{i}")
        if config.consensus_enabled:
            spawn(stages.worker_loop(self), name=f"{name}.worker")
            spawn(execution.checkpoint_loop(self), name=f"{name}.checkpoint")
            if config.execute_threads:
                spawn(execution.execute_loop(self), name=f"{name}.execute")
            if self.engine.num_instances > 1:
                spawn(stages.balance_loop(self), name=f"{name}.balance")
        for i in range(stages.OUTPUT_THREADS):
            stages.OutputStage(self, i)

    # read-only views of the ledger that the benchmark harness reads
    executed_log = property(lambda self: self.ledger.executed_log)
    chain = property(lambda self: self.ledger.chain)

    @property
    def is_primary(self) -> bool:
        return self.engine.is_primary

    # -- client requests at the primary's edge (§4.1, repro.flow) ----------
    def admit_client_request(self, message: ClientRequest) -> bool:
        """Route a client request at an input thread; True iff this
        replica sequences it (the caller then charges the sequencing
        cost and hands it to :meth:`queue_sequenced`)."""
        if not self.is_primary:
            # forward to the current primary (client may not know the view)
            self.forwarded_requests += 1
            target = self.engine.forward_target(message.sender, message.request_id)
            self.enqueue_output(target, message)
            self.host.remember_forwarded(message)
            # classic PBFT: adopting a forwarded request arms a probe — if
            # the system makes no progress before it fires, the primary is
            # suspected and a view change begins
            self._arm_forward_probe()
            return False
        verdict = self.host.admit(message)
        if verdict is None:
            spans = self.system.spans
            if spans.enabled:
                spans.stamp(
                    (message.sender, message.request_id), "input", self.sim.now
                )
            return True
        if verdict is not DUPLICATE:
            # refused before anything was recorded, so a NACKed retry
            # re-enters cleanly once the primary has room again
            self.flow.rejected_requests += 1
            self._send_busy_nack(message, verdict)
        return False

    def queue_sequenced(self, request: ClientRequest, producer=None):
        """Hand an admitted request to batching: the batch queue, under
        its back-pressure policy (see :meth:`SimQueue.offer`), or in the
        0B pipeline the worker's queue at low priority."""
        if not self.config.batch_threads:
            self.work_queue.put_nowait(request, 1)
            return True
        return self.batch_queue.offer(request, producer)

    def reject_request(self, message: ClientRequest, reason: str) -> None:
        """A bounded queue refused this request: undo its admission and
        NACK the client so it backs off and retries."""
        self.host.undo(message)
        self.flow.rejected_requests += 1
        self._send_busy_nack(message, reason)

    def _on_batch_shed(self, item: ClientRequest) -> None:
        """shed_oldest evicted a client request from the batch queue."""
        key = (item.sender, item.request_id)
        if self.host.was_sequenced(*key):
            # must be unreachable: requests gain a sequence number only
            # after leaving this queue — recorded for the oracle
            self.flow.shed_sequenced.append(key)
        self.flow.shed_requests += 1
        self.flow.shed_keys.append(key)
        self.host.undo(item)
        self._send_busy_nack(item, "shed")

    def _send_busy_nack(self, request: ClientRequest, reason: str) -> None:
        """Tell the client its request was turned away (unsigned — a NACK
        carries no result, only a congestion signal)."""
        nack = BusyNack(
            self.replica_id,
            (request.request_id,),
            reason,
            retry_after_ns=self.config.client_retransmit or 0,
        )
        # name the busy lane so RCC clients can steer away from it
        nack.instance = self.engine.steer_instance(
            request.sender, request.request_id
        )
        self.flow.nacks_sent += 1
        self.flow.nacked_keys.add((request.sender, request.request_id))
        self.enqueue_output(request.sender, nack)

    def authentic(self, message: Message, scheme) -> bool:
        """Check ``message``'s token against ``scheme`` (when real tokens
        are on); a forgery is counted and the caller skips the message.
        The verify cost is the caller's to charge, so this never yields."""
        if not self.config.real_auth_tokens:
            return True
        ok = scheme.check(
            message.signable_bytes(), message.auth, message.sender,
            self.replica_id,
        )
        if not ok:
            self.invalid_messages += 1
        return ok

    # -- action dispatch ---------------------------------------------------
    def dispatch(self, actions, thread_id: str, transformed: bool = False):
        if self.adversary is not None and not transformed:
            actions = self.adversary.transform(self, actions)
        for action in actions:
            if isinstance(action, Broadcast):
                spans = self.system.spans
                if spans.enabled and action.message.kind in (
                    "commit",  # PBFT: broadcasting Commit == prepared
                    "poe-support",  # PoE: broadcasting Support == endorsed
                ):
                    # lane-local sequence → the global slot spans track
                    sequence = self.engine.global_sequence(
                        action.message.instance, action.message.sequence
                    )
                    spans.stamp_sequence(sequence, "prepare", self.sim.now)
                yield from self.sign_and_queue(
                    action.message, self.peers, thread_id,
                    scheme=self.system.replica_scheme,
                )
            elif isinstance(action, SendTo):
                scheme = self.system.replica_scheme
                if action.dst not in self.system.replica_set:
                    scheme = self.system.client_scheme
                yield from self.sign_and_queue(
                    action.message, [action.dst], thread_id, scheme=scheme
                )
            elif isinstance(action, ExecuteReady):
                taken, ready = self.ledger.commit(action)
                spans = self.system.spans
                if taken and spans.enabled:
                    spans.stamp_sequence(action.sequence, "commit", self.sim.now)
                if ready:
                    yield from execution.wake(self, thread_id)
            elif isinstance(action, StartViewChangeTimer):
                self._arm_vc_timer(action.sequence)
            elif isinstance(action, CancelViewChangeTimer):
                timer = self._vc_timers.pop(action.sequence, None)
                if timer is not None:
                    timer.cancel()
            elif isinstance(action, EnterView):
                self._on_enter_view(action.view)
            else:  # pragma: no cover - future action types
                raise TypeError(f"unhandled action {action!r}")

    def spawn_dispatch(self, actions, role: str, transformed: bool = False):
        """Dispatch ``actions`` outside any stage (a timer fired): on a
        process ``rX.<role>`` of its own, charged to the worker thread."""
        self.sim.spawn(
            self.dispatch(actions, f"{self.replica_id}.worker", transformed),
            name=f"{self.replica_id}.{role}",
        )

    def sign_and_queue(self, message, receivers, thread_id, scheme):
        yield self.cpu.run(
            scheme.sign_cost(message.wire_bytes(), len(receivers)), thread_id
        )
        if self.config.real_auth_tokens:
            message.auth = scheme.authenticate(
                message.signable_bytes(), self.replica_id, receivers
            )
        for dst in receivers:
            self.enqueue_output(dst, message)

    def enqueue_output(self, dst: str, message) -> None:
        queue = self._output_queue_for.get(dst)
        if queue is None:
            index = zlib.crc32(dst.encode("utf-8")) % len(self.output_queues)
            queue = self._output_queue_for[dst] = self.output_queues[index]
        queue.put_nowait((dst, message))

    # -- view-change timers ------------------------------------------------
    def _arm_vc_timer(self, sequence: int) -> None:
        if sequence in self._vc_timers:
            return
        self._vc_timers[sequence] = Timer(
            self.sim, self.config.view_change_timeout, self._on_vc_timeout, sequence
        )

    def _on_vc_timeout(self, sequence: int) -> None:
        self._vc_timers.pop(sequence, None)
        actions = self.engine.on_view_change_timeout(sequence)
        if actions:
            self.spawn_dispatch(actions, "vc-dispatch")

    def _arm_forward_probe(self) -> None:
        if self._forward_probe is not None:
            return
        self._forward_probe = (len(self.ledger.executed_log), self.engine.view)
        Timer(self.sim, self.config.view_change_timeout, self._on_forward_probe)

    def _on_forward_probe(self) -> None:
        if self._forward_probe is None:
            return
        executed_then, view_then = self._forward_probe
        self._forward_probe = None
        engine = self.engine
        if (
            len(self.ledger.executed_log) != executed_then
            or engine.view != view_then
            or engine.in_view_change
        ):
            return  # progress happened or a view change is already underway
        actions = engine.suspect_primary()
        if actions:
            self.spawn_dispatch(actions, "suspect-dispatch")

    def _on_enter_view(self, view: int) -> None:
        spans = self.system.spans
        if spans.enabled:
            spans.event(
                self.sim.now, self.replica_id, "view-change",
                f"entered view {view}",
            )
        # requests admitted by the old primary are re-proposed or
        # retransmitted under the new view; dropping the stale per-client
        # counts keeps the admission budget from leaking across views
        if not self.is_primary:
            self.admission.clear_backlog()
            return
        engine = self.engine
        requests = self.host.carry_over_candidates(
            engine.forward_target, self.replica_id, engine.open_batches()
        )
        if requests:
            self.sim.spawn(
                self._carry_over(requests), name=f"{self.replica_id}.carry-over"
            )

    def _carry_over(self, requests: List[ClientRequest]):
        """Admit carried-over requests as the input threads admit client
        requests: admission, sequencing cost, batching.  A full admission
        budget or batch queue ends the pass without a busy-NACK (NACKs
        would shrink the clients' windows); the clients still retransmit
        whatever is left."""
        thread_id = f"{self.replica_id}.input-0"
        sequence_cost = WORK_COSTS.sequence_assign_ns
        host = self.host
        spans = self.system.spans
        for request in requests:
            if not self.is_primary:
                return  # the view moved on again
            verdict = host.admit(request)
            if verdict is DUPLICATE:
                continue  # a retransmission got here first
            if verdict is not None:
                return
            if spans.enabled:
                spans.stamp(
                    (request.sender, request.request_id), "input", self.sim.now
                )
            yield self.cpu.run(sequence_cost, thread_id)
            if self.batch_queue.full():
                host.undo(request)
                return
            self.queue_sequenced(request)
