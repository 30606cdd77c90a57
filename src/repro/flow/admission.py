"""Primary-side admission control and shed/NACK accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: identifies one client request: (client group name, request id)
RequestKey = Tuple[str, int]


class AdmissionController:
    """Caps consensus depth and per-client backlog at the primary.

    Two independent limits, both optional:

    - ``max_inflight`` bounds consensus instances proposed but not yet
      executed (the paper's pipeline depth at the primary);
    - ``max_per_client`` bounds requests admitted per client group that
      have not yet been replied to.

    ``try_admit`` is consulted *before* a request enters the batch path, so
    every refusal happens before a sequence number exists — preserving the
    invariant that sequenced requests are never shed.
    """

    __slots__ = (
        "max_inflight",
        "max_per_client",
        "_proposed",
        "_per_client",
        "admitted",
        "rejected_inflight",
        "rejected_per_client",
    )

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        max_per_client: Optional[int] = None,
    ):
        self.max_inflight = max_inflight
        self.max_per_client = max_per_client
        self._proposed: Set[int] = set()
        self._per_client: Dict[str, int] = {}
        self.admitted = 0
        self.rejected_inflight = 0
        self.rejected_per_client = 0

    @property
    def enabled(self) -> bool:
        return self.max_inflight is not None or self.max_per_client is not None

    @property
    def inflight(self) -> int:
        """Consensus instances proposed but not yet executed."""
        return len(self._proposed)

    def try_admit(self, sender: str) -> Optional[str]:
        """Admit a request from ``sender`` or return a refusal reason."""
        if self.max_inflight is not None and len(self._proposed) >= self.max_inflight:
            self.rejected_inflight += 1
            return "inflight"
        if self.max_per_client is not None:
            pending = self._per_client.get(sender, 0)
            if pending >= self.max_per_client:
                self.rejected_per_client += 1
                return "client"
        self._per_client[sender] = self._per_client.get(sender, 0) + 1
        self.admitted += 1
        return None

    def release_client(self, sender: str) -> None:
        """A request from ``sender`` left the pipeline (reply or shed)."""
        pending = self._per_client.get(sender, 0)
        if pending > 1:
            self._per_client[sender] = pending - 1
        elif pending:
            del self._per_client[sender]

    def clear_backlog(self) -> None:
        """Forget per-client counts (a replica that stopped being primary
        will never reply to the requests it admitted; the new primary
        admits their retransmissions against its own fresh budget)."""
        self._per_client.clear()

    def on_propose(self, sequence: int) -> None:
        self._proposed.add(sequence)

    def on_execute(self, sequence: int) -> None:
        """Execution is in order, so everything at or below ``sequence`` is
        done — pruning this way also drops instances abandoned across a
        view change (the new primary re-proposes under the same or a later
        sequence number)."""
        if self._proposed:
            self._proposed = {s for s in self._proposed if s > sequence}


@dataclass
class FlowStats:
    """Per-replica overload accounting, summed into the experiment result
    and checked by :func:`repro.flow.invariants.check_flow_invariants`."""

    shed_requests: int = 0
    rejected_requests: int = 0
    nacks_sent: int = 0
    #: request keys evicted by shed_oldest (each must be NACKed or complete)
    shed_keys: List[RequestKey] = field(default_factory=list)
    #: request keys that were sent a busy-nack
    nacked_keys: Set[RequestKey] = field(default_factory=set)
    #: requests shed *after* sequence assignment — must always stay empty
    shed_sequenced: List[RequestKey] = field(default_factory=list)
