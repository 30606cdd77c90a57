"""Timing-free cluster harness for the multi-primary coordinator.

The :class:`~tests.consensus.harness.Cluster` counterpart for
:class:`~repro.multi.InstanceCoordinator`: every replica runs a full
coordinator (m PBFT instances), messages are delivered over an in-memory
wire, and ExecuteReady actions — which the coordinator emits in *global*
sequence space — feed a stand-in ordered execution layer.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.consensus import (
    Broadcast,
    CancelViewChangeTimer,
    QuorumConfig,
    SendTo,
    StartViewChangeTimer,
)
from repro.consensus.base import EnterView, ExecuteReady
from repro.multi import InstanceCoordinator

from tests.consensus.harness import make_request

__all__ = ["MultiCluster", "make_request"]

class MultiCluster:
    """N coordinators (m lanes each) plus an in-memory message bus."""

    def __init__(self, n: int = 4, m: int = 2):
        self.quorum = QuorumConfig.for_replicas(n)
        self.ids: Tuple[str, ...] = tuple(f"r{i}" for i in range(n))
        self.num_instances = m
        self.replicas: Dict[str, InstanceCoordinator] = {
            rid: InstanceCoordinator(rid, self.ids, self.quorum, m)
            for rid in self.ids
        }
        self.wire: deque = deque()
        #: committed-but-maybe-out-of-order ExecuteReady per replica,
        #: keyed by *global* sequence
        self._ready: Dict[str, Dict[int, ExecuteReady]] = {rid: {} for rid in self.ids}
        self._next_exec: Dict[str, int] = {rid: 1 for rid in self.ids}
        #: ordered executed log per replica: [(global sequence, digest)]
        self.executed: Dict[str, List[Tuple[int, str]]] = {rid: [] for rid in self.ids}
        #: armed view-change timers per replica (global sequences)
        self.timers: Dict[str, Set[int]] = {rid: set() for rid in self.ids}
        self.client_messages: List[Tuple[str, str, object]] = []
        self.crashed: Set[str] = set()

    # ------------------------------------------------------------------
    def propose(self, rid: str, request):
        """Feed a request to replica ``rid`` (must lead some lane)."""
        proposal, actions = self.replicas[rid].propose(request.digest, request)
        self._apply(rid, actions)
        return proposal

    def balance(self, rid: str) -> None:
        """Run one skip-certificate balance pass on replica ``rid``."""
        self._apply(rid, self.replicas[rid].balance_actions())

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

    def fire_timer(self, rid: str, global_seq: int) -> None:
        self.timers[rid].discard(global_seq)
        self._apply(rid, self.replicas[rid].on_view_change_timeout(global_seq))

    def fire_all_timers(self, global_seq: Optional[int] = None) -> None:
        """Fire one armed timer on every live replica (the simultaneous
        timeout case); ``global_seq=None`` fires each replica's lowest."""
        for rid in self.ids:
            if rid in self.crashed:
                continue
            armed = sorted(self.timers[rid])
            if not armed:
                continue
            target = global_seq if global_seq is not None else armed[0]
            if target in self.timers[rid]:
                self.fire_timer(rid, target)
