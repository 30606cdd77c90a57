"""RCC client rules: spread client ingest over the ``m`` lane primaries.

Each request goes to its lane's view-0 primary (replicas compute the same
``steer_lane`` when forwarding).  A busy-nack marks its sender's lane busy
for one backoff, and requests steered to a busy lane go to the next
current lane primary that has not said Busy.  An unanswered request goes
to one rotating fallback replica, which forwards it to the lane's current
primary: a broadcast from every client of a crashed lane primary would
square the message load.
"""

from __future__ import annotations

from typing import Dict

from repro.core.clientmgr import ClientGroup, PendingRequest
from repro.multi.unifier import steer_lane


class RccClientGroup(ClientGroup):
    """Closed-loop clients of a multi-primary (RCC) deployment."""

    def __init__(self, system, index: int, logical_clients: int):
        super().__init__(system, index, logical_clients)
        self._lanes = self.config.num_primaries
        #: r0's coordinator: its lane views name each lane's current primary
        self._coordinator = system.replicas[system.replica_ids[0]].engine
        #: lane primary -> time its Busy signal expires
        self._lane_busy_until: Dict[str, int] = {}

    def _lane(self, request_id: int) -> int:
        return steer_lane(self.name, request_id, self._lanes)

    def _steer_target(self, request_id: int) -> str:
        target = self.system.replica_ids[self._lane(request_id)]
        busy_until = self._lane_busy_until
        now = self.sim.now
        if busy_until.get(target, 0) <= now:
            return target
        # the steered lane is busy: rotate deterministically to the first
        # lane primary that has not recently said Busy
        primaries = [
            self._coordinator.lane_primary(lane) for lane in range(self._lanes)
        ]
        if target not in primaries:
            return target
        start = primaries.index(target)
        for offset in range(1, len(primaries)):
            candidate = primaries[(start + offset) % len(primaries)]
            if busy_until.get(candidate, 0) <= now:
                return candidate
        return target

    def _retransmit(self, request_id: int, pending: PendingRequest) -> None:
        ids = self.system.replica_ids
        fallback = ids[(self._lane(request_id) + pending.retransmissions) % len(ids)]
        self.system.network.send(self.name, fallback, pending.request)

    def _handle_busy(self, message) -> None:
        self._lane_busy_until[message.sender] = self.sim.now + self.backoff.delay(1)
        super()._handle_busy(message)
