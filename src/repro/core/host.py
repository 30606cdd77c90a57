"""The replica's host rules: what happens to a client request's key.

:class:`HostRules` decides admission, undo, forwarding carry-over,
exactly-once execution, clearing and state adoption for every
``(sender, request_id)`` with no clock, queue or simulator; the pipeline
stages call it and apply the timing.  The two helpers at the end are the
execute-thread's pure halves, shared by ordered execution and the Fig. 7
upper-bound responder: what the operations cost, and applying them.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import WORK_COSTS
from repro.core.dedup import RequestKeySet
from repro.flow.admission import AdmissionController, RequestKey
from repro.storage.base import STORAGE_COSTS
from repro.workloads.transactions import OpType

#: :meth:`HostRules.admit`'s verdict for a retransmission of a request
#: that is already admitted
DUPLICATE = "duplicate"


class HostRules:
    """One replica's request-key rules, over four key sets, and the
    ``admission`` budget they drive: admitted keys (a retransmission of an
    in-flight request is dropped), sequenced keys (a proposed request must
    never be shed), forwarded requests in arrival order until they execute
    (a new primary proposes the ones it leads), and executed keys (a
    request proposed twice executes once)."""

    def __init__(self, admission: AdmissionController, dedup_limit: int):
        self.admission = admission
        #: above this many keys, a stable checkpoint clears a key set
        self.dedup_limit = dedup_limit
        self._seen_requests = RequestKeySet()
        self._sequenced_keys = RequestKeySet()
        self._forwarded: Dict[RequestKey, object] = {}
        self._executed_keys = RequestKeySet()

    # -- the primary's admission -----------------------------------------
    def admit(self, request) -> Optional[str]:
        """Admit ``request`` for batching: None if admitted, ``DUPLICATE``
        for a retransmission, else the admission controller's refusal
        reason.  A refusal records nothing, so the retry starts clean."""
        sender, request_id = request.sender, request.request_id
        if self._seen_requests.contains(sender, request_id):
            return DUPLICATE
        reason = self.admission.try_admit(sender)
        if reason is None:
            self._seen_requests.add(sender, request_id)
        return reason

    def undo(self, request) -> None:
        """Take back an admission (the request was refused by a queue,
        shed, or failed verification): its key and its client budget."""
        self._seen_requests.discard(request.sender, request.request_id)
        self.admission.release_client(request.sender)

    def mark_sequenced(self, requests: Iterable) -> None:
        """These requests are in a proposal: past where shedding may go."""
        for request in requests:
            self._sequenced_keys.add(request.sender, request.request_id)

    # -- forwarding and view-entry carry-over ----------------------------
    def remember_forwarded(self, request) -> None:
        self._forwarded.setdefault((request.sender, request.request_id), request)

    def carry_over_candidates(
        self, leader_of: Callable[[str, int], str], me: str, held_batches: Iterable
    ) -> List:
        """Forwarded requests that ``leader_of`` now assigns to ``me``, in
        arrival order, minus those executed and those in a held batch
        (committed, or carried into the new view)."""
        if not self._forwarded:
            return []
        held = RequestKeySet()
        for batch in held_batches:
            for request in batch.requests:
                held.add(request.sender, request.request_id)
        executed = self._executed_keys
        return [
            request
            for (sender, request_id), request in self._forwarded.items()
            if leader_of(sender, request_id) == me
            and not held.contains(sender, request_id)
            and not executed.contains(sender, request_id)
        ]

    # -- execution, checkpoints and state transfer -----------------------
    def executed(self, requests: Sequence) -> Sequence:
        """Record a batch's requests as executed; return those that had
        not executed before (``requests`` itself when none had)."""
        fresh = self._executed_keys.add_requests(requests)
        forwarded = self._forwarded
        if forwarded:
            for request in requests:
                forwarded.pop((request.sender, request.request_id), None)
        return fresh

    def gc(self) -> None:
        """A stable checkpoint bounds how far back a retransmission can
        reach, so retaining every key forever would only leak; a forwarded
        request dropped here is still retransmitted by its client."""
        if len(self._seen_requests) > self.dedup_limit:
            self._seen_requests.clear()
        if len(self._sequenced_keys) > self.dedup_limit:
            self._sequenced_keys.clear()
        self._forwarded.clear()

    def executed_keys(self) -> RequestKeySet:
        return self._executed_keys.copy()  # for a state-transfer response

    def adopt(self, executed_keys: Optional[RequestKeySet]) -> None:
        """Install a transferred state: the adopted log executed requests
        this replica never saw execute."""
        if executed_keys is not None:
            self._executed_keys = executed_keys
        self._forwarded.clear()

    # -- queries ----------------------------------------------------------
    def was_admitted(self, sender: str, request_id: int) -> bool:
        return self._seen_requests.contains(sender, request_id)

    def was_sequenced(self, sender: str, request_id: int) -> bool:
        return self._sequenced_keys.contains(sender, request_id)

    def was_executed(self, sender: str, request_id: int) -> bool:
        return self._executed_keys.contains(sender, request_id)

    def forwarded_keys(self) -> List[RequestKey]:
        return list(self._forwarded)


def execution_charge(config, requests: Iterable) -> Tuple[int, int]:
    """``(ns, ops)``: execute-thread CPU for ``requests``' operations, from
    the price lists alone (per-op work plus a backend read or write), and
    how many there are."""
    read_ns, write_ns = STORAGE_COSTS.op_costs(config.storage_backend)
    op_ns = WORK_COSTS.execute_op_ns
    cost = ops = 0
    for request in requests:
        for txn in request.txns:
            for op in txn.ops:
                ops += 1
                cost += op_ns
                cost += write_ns if op.op_type is OpType.WRITE else read_ns
    return cost, ops


def apply_operations(store, requests: Iterable) -> None:
    """Apply ``requests``' operations to ``store``, in order."""
    for request in requests:
        for txn in request.txns:
            for op in txn.ops:
                if op.op_type is OpType.WRITE:
                    store.write(op.key, op.value)
                else:
                    store.read(op.key)
