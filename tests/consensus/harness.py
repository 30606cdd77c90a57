"""A timing-free cluster harness for driving consensus state machines.

Delivers protocol messages between engine instances directly (no
simulator), with hooks for dropping, reordering, crashing and byzantine
mutation — the unit-level counterpart of the full-system simulation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.consensus import (
    Broadcast,
    CancelViewChangeTimer,
    ClientRequest,
    QuorumConfig,
    SendTo,
    StartViewChangeTimer,
)
from repro.consensus.base import EnterView, ExecuteReady
from repro.crypto import digest_bytes
from repro.engines import ENGINES
from repro.workloads import Operation, OpType, Transaction


def make_request(client_id: str, request_id: int, txn_count: int = 1) -> ClientRequest:
    txns = tuple(
        Transaction(
            client_id=client_id,
            ops=(Operation(OpType.WRITE, f"key{request_id}-{i}", "value"),),
        )
        for i in range(txn_count)
    )
    request = ClientRequest(client_id, request_id, txns)
    request.digest = digest_bytes(request.batch_bytes())
    return request


class Cluster:
    """N engines plus an in-memory message bus."""

    def __init__(self, n: int = 4, protocol: str = "pbft"):
        self.quorum = QuorumConfig.for_replicas(n)
        self.ids: Tuple[str, ...] = tuple(f"r{i}" for i in range(n))
        self.replicas: Dict[str, object] = {
            rid: ENGINES[protocol].replica(rid, self.ids, self.quorum, 1)
            for rid in self.ids
        }
        #: pending (src, dst, message) deliveries
        self.wire: deque = deque()
        #: committed-but-maybe-out-of-order ExecuteReady per replica
        self._ready: Dict[str, Dict[int, ExecuteReady]] = {rid: {} for rid in self.ids}
        self._next_exec: Dict[str, int] = {rid: 1 for rid in self.ids}
        #: ordered executed log per replica: [(sequence, digest)]
        self.executed: Dict[str, List[Tuple[int, str]]] = {rid: [] for rid in self.ids}
        #: armed view-change timers per replica
        self.timers: Dict[str, Set[int]] = {rid: set() for rid in self.ids}
        self.client_messages: List[Tuple[str, str, object]] = []
        self.crashed: Set[str] = set()
        #: optional mutation hook: fn(src, dst, message) -> message or None
        self.tamper: Optional[Callable] = None

    # ------------------------------------------------------------------
    def primary_id(self) -> str:
        any_replica = self.replicas[self.ids[0]]
        return any_replica.primary_of(any_replica.view)

    def propose(self, request: ClientRequest, sequence: Optional[int] = None):
        """Feed a request to the current primary; an explicit ``sequence``
        (PBFT only) bypasses the engine's own sequence assignment."""
        primary = self.replicas[self.primary_id()]
        if sequence is None:
            message, actions = primary.propose(request.digest, request)
        else:
            message, actions = primary.make_preprepare(
                sequence, request.digest, request
            )
        self._apply(primary.replica_id, actions)
        return message.sequence

    # ------------------------------------------------------------------
    def _apply(self, rid: str, actions) -> None:
        for action in actions:
            if isinstance(action, Broadcast):
                for dst in self.ids:
                    if dst != rid:
                        self.wire.append((rid, dst, action.message))
            elif isinstance(action, SendTo):
                if action.dst in self.replicas:
                    self.wire.append((rid, action.dst, action.message))
                else:
                    self.client_messages.append((rid, action.dst, action.message))
            elif isinstance(action, ExecuteReady):
                self._ready[rid][action.sequence] = action
                self._drain_executions(rid)
            elif isinstance(action, StartViewChangeTimer):
                self.timers[rid].add(action.sequence)
            elif isinstance(action, CancelViewChangeTimer):
                self.timers[rid].discard(action.sequence)
            elif isinstance(action, EnterView):
                pass
            else:  # pragma: no cover - future action types
                raise AssertionError(f"unhandled action {action!r}")

    def _drain_executions(self, rid: str) -> None:
        """The harness's stand-in for the ordered execution layer."""
        ready = self._ready[rid]
        while self._next_exec[rid] in ready:
            action = ready.pop(self._next_exec[rid])
            self.executed[rid].append((action.sequence, action.request.digest))
            self._next_exec[rid] += 1

    # ------------------------------------------------------------------
    def deliver_one(self) -> bool:
        if not self.wire:
            return False
        src, dst, message = self.wire.popleft()
        if src in self.crashed or dst in self.crashed:
            return True
        if self.tamper is not None:
            message = self.tamper(src, dst, message)
            if message is None:
                return True
        actions = self.replicas[dst].handle(message)
        assert actions is not None, f"{dst} cannot handle {message.kind!r}"
        self._apply(dst, actions)
        return True

    def run(self, max_steps: int = 100_000) -> None:
        steps = 0
        while self.deliver_one():
            steps += 1
            if steps > max_steps:
                raise AssertionError("message storm: cluster did not quiesce")

    def fire_timer(self, rid: str, sequence: int) -> None:
        self.timers[rid].discard(sequence)
        self._apply(rid, self.replicas[rid].on_view_change_timeout(sequence))

    def shuffle_wire(self, rng) -> None:
        items = list(self.wire)
        rng.shuffle(items)
        self.wire = deque(items)
