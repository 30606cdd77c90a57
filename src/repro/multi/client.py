"""RCC client rules: spread client ingest over the ``m`` lane primaries.

Each request goes to the primary of its lane (replicas compute the same
``steer_lane`` when forwarding) in the lane's learned view: the group
learns one view per lane from signed replies, a reply's lane being the
lane that ordered its global sequence, and accepts a view once f+1
replicas vouch for it (:class:`~repro.core.clientmgr.ClientGroup`).  A
busy-nack marks its sender's lane busy for one backoff, and requests
steered to a busy lane go to the next learned lane primary that has not
said Busy.  An unanswered request goes to one fallback replica that
leads no lane, taken in the order the lane's view changes would make
them primary; it forwards the request to the lane's current primary,
and proposes it itself if a view change hands it the lane.  A broadcast
from every client of a crashed lane primary would square the message
load, and a fallback that leads a lane would propose a second copy of
the request in its own lane.
"""

from __future__ import annotations

from typing import Dict

from repro.core.clientmgr import ClientGroup, PendingRequest
from repro.multi.unifier import instance_of, steer_lane


class RccClientGroup(ClientGroup):
    """Closed-loop clients of a multi-primary (RCC) deployment."""

    def __init__(self, system, index: int, logical_clients: int):
        super().__init__(system, index, logical_clients)
        #: lane primary -> time its Busy signal expires
        self._lane_busy_until: Dict[str, int] = {}

    def _lane(self, request_id: int) -> int:
        return steer_lane(self.name, request_id, len(self._views))

    def _reply_lane(self, sequence: int) -> int:
        return instance_of(sequence, len(self._views))

    def _steer_target(self, request_id: int) -> str:
        lane = self._lane(request_id)
        target = self._lane_primary(lane)
        busy_until = self._lane_busy_until
        now = self.sim.now
        if busy_until.get(target, 0) <= now:
            return target
        # the steered lane is busy: rotate deterministically to the first
        # lane primary that has not recently said Busy
        lanes = len(self._views)
        for offset in range(1, lanes):
            candidate = self._lane_primary((lane + offset) % lanes)
            if busy_until.get(candidate, 0) <= now:
                return candidate
        return target

    def _retransmit(self, request_id: int, pending: PendingRequest) -> None:
        ids = self.system.replica_ids
        n = len(ids)
        lane = self._lane(request_id)
        start = lane + self._views[lane]
        # the lane's next primaries in view-change order: the first
        # fallback caches the request it forwards and proposes it if a
        # view change makes it the lane's primary
        successors = [ids[(start + step) % n] for step in range(1, n + 1)]
        # skip every lane primary; with m = n every replica leads a lane
        # and the rotation runs over them all
        leaders = {self._lane_primary(k) for k in range(len(self._views))}
        fallbacks = [rid for rid in successors if rid not in leaders] or successors
        fallback = fallbacks[(pending.retransmissions - 1) % len(fallbacks)]
        self.system.network.send(self.name, fallback, pending.request)

    def _handle_busy(self, message) -> None:
        self._lane_busy_until[message.sender] = self.sim.now + self.backoff.delay(1)
        super()._handle_busy(message)
