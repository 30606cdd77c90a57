"""Closed-loop clients (§5.1, §5.8).

The paper drives every experiment with up to 80K closed-loop clients: each
client keeps one request in flight and issues the next one the moment the
previous completes.  That model is what produces Fig. 15's signature — as
clients grow, throughput saturates while latency rises linearly (the extra
requests simply queue).

Simulating 80K coroutines would be wasteful; instead clients are grouped.
A :class:`ClientGroup` owns one network endpoint and manages
``clients_per_group`` *logical* clients as pending-request records.  Group
size changes nothing about offered load or completion logic — it only
coalesces endpoints.

:class:`ClientGroup` follows the PBFT/PoE client rules, and steers each
new request to the primary of the view that f+1 replicas report in their
signed replies; an engine whose clients differ names a subclass in its
:data:`repro.engines.ENGINES` entry.  A group holds no replica or engine
object: all it knows of the replicas comes from their messages.  This
module never names a protocol, and must not import
:mod:`repro.core.config`: the registry imports the subclasses, which
import this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.consensus.messages import ClientRequest
from repro.flow import AIMDWindow, RetransmitBackoff
from repro.sim.clock import millis
from repro.sim.events import Timer
from repro.workloads.ycsb import YCSBWorkload


class PendingRequest:
    """Book-keeping for one in-flight logical-client request.

    Slotted, and its containers are created on first use: a request
    waiting for its first reply holds none, and a PBFT or RCC client
    never pays for the speculative-path one (``spec_matches``).  The
    Zyzzyva commit-certificate path keeps its state in its own client
    (:mod:`repro.consensus.zyzzyva_client`), not here.
    """

    __slots__ = (
        "submitted_at", "txn_count", "request", "timer", "responses",
        "spec_matches", "retransmissions", "nacks",
    )

    def __init__(
        self,
        submitted_at: int,
        txn_count: int,
        request: Optional[ClientRequest] = None,
    ):
        self.submitted_at = submitted_at
        self.txn_count = txn_count
        #: the request message, kept for retransmission
        self.request = request
        #: the armed retransmit (or engine) timer, cancelled on completion
        self.timer: Optional[Timer] = None
        #: client-responses: responding replica -> result digest (None
        #: until the first client-response)
        self.responses: Optional[Dict[str, str]] = None
        #: spec-responses: match key -> set of responders (None until the
        #: first spec-response)
        self.spec_matches: Optional[Dict[Tuple, Set[str]]] = None
        self.retransmissions = 0
        #: busy-nacks received for this request (feeds the backoff exponent)
        self.nacks = 0


class ClientGroup:
    """A bundle of logical closed-loop clients sharing one endpoint.

    PBFT/PoE rules: send to the primary of the learned view (replicas
    forward if the view has moved on since); complete on f+1 matching
    client-responses or 2f+1 matching spec-responses; broadcast on a
    retransmit timeout.

    The group learns views from the signed replies it already gets: it
    keeps the highest view each replica has reported, per lane, and
    accepts the highest view that f+1 distinct replicas vouch for, so f
    Byzantine replicas cannot misdirect it.  A single-lane engine has
    one lane; an engine with several (RCC) names each reply's lane in
    :meth:`_reply_lane`."""

    def __init__(self, system, index: int, logical_clients: int):
        self.system = system
        self.config = system.config
        self.sim = system.sim
        self.name = f"client{index}"
        self.logical_clients = logical_clients
        self.endpoint = system.network.register(self.name)
        rng = system.rng.fork(self.name)
        self.workload = YCSBWorkload(
            rng,
            record_count=self.config.ycsb_records,
            ops_per_txn=self.config.ops_per_txn,
            padding_bytes=self.config.payload_padding_bytes,
            write_fraction=self.config.write_fraction,
            theta=self.config.ycsb_theta,
        )
        self.next_request_id = 0
        self.pending: Dict[int, PendingRequest] = {}
        # -- overload protection (repro.flow) ---------------------------
        config = self.config
        base_retry = config.client_retransmit or millis(5)
        self.backoff = RetransmitBackoff(
            base=base_retry, rng=system.rng.fork(f"{self.name}.flow")
        )
        # the AIMD pending window; by default every logical client may
        # have its one request in flight (no windowing until congestion)
        initial = config.client_window_initial or logical_clients
        self.window = AIMDWindow(
            initial=max(1, min(initial, logical_clients)),
            max_size=logical_clients,
            cooldown=base_retry,
        )
        #: logical clients whose next request awaits window room
        self._deferred = 0
        self.busy_nacks_received = 0
        self.completed_requests = 0
        # -- view learning -------------------------------------------------
        #: consensus lanes, each with its own view and primary (one unless
        #: the engine runs concurrent lanes)
        lanes = config.num_primaries
        #: per lane: the view f+1 replicas vouch for; its primary is where
        #: new requests of that lane go
        self._views: List[int] = [0] * lanes
        #: per lane: replica -> the highest view it has reported
        self._reported: List[Dict[str, int]] = [{} for _ in range(lanes)]
        self._vouchers = system.quorum.f + 1
        #: (request_id, sequence, result digest) per completion, recorded
        #: when ``config.record_completions`` is on (the fuzzer's reply
        #: oracle matches these against replica executed logs)
        self.completion_log: List[Tuple[int, Optional[int], Optional[str]]] = []

    # ------------------------------------------------------------------
    def start(self, ramp_ns: int) -> None:
        """Spawn the response loop and stagger the initial window of
        requests over ``ramp_ns`` to avoid a synthetic thundering herd."""
        self.sim.spawn(self._inbox_loop(), name=f"{self.name}.inbox")
        for i in range(self.logical_clients):
            delay = (ramp_ns * i) // max(1, self.logical_clients)
            self.sim.schedule(delay, self._send_new_request)

    # ------------------------------------------------------------------
    # request issue
    # ------------------------------------------------------------------
    def _send_new_request(self) -> None:
        config = self.config
        if len(self.pending) >= self.window.size:
            # AIMD window closed: this logical client's next request is
            # deferred until completions reopen room
            self._deferred += 1
            return
        request_id = self.next_request_id
        self.next_request_id += 1
        txns = tuple(
            self.workload.next_transaction(self.name)
            for _ in range(config.client_batch_txns)
        )
        request = ClientRequest(self.name, request_id, txns)
        target = self._steer_target(request_id)
        if config.real_auth_tokens:
            request.auth = self.system.client_scheme.authenticate(
                request.signable_bytes(), self.name, [target]
            )
        pending = PendingRequest(
            submitted_at=self.sim.now, txn_count=len(txns), request=request
        )
        self.pending[request_id] = pending
        spans = self.system.spans
        if spans.enabled:
            spans.begin((self.name, request_id), self.sim.now)
        self.system.network.send(self.name, target, request)
        self._arm_timer(request_id, pending)

    def _steer_target(self, request_id: int) -> str:
        """Where a request is sent first, and resent after a busy-nack:
        the learned primary of its lane."""
        return self._lane_primary(self._lane(request_id))

    # ------------------------------------------------------------------
    # lanes and learned views
    # ------------------------------------------------------------------
    def _lane(self, request_id: int) -> int:
        """The lane a request is steered to."""
        return 0

    def _reply_lane(self, sequence: int) -> int:
        """The lane that ordered the reply for ``sequence``."""
        return 0

    def _lane_primary(self, lane: int) -> str:
        """Primary of ``lane`` in its learned view: lane ``k``'s replica
        list is the replica list rotated by ``k``."""
        ids = self.system.replica_ids
        return ids[(lane + self._views[lane]) % len(ids)]

    def _learn_view(self, message) -> None:
        """Fold the view of one signed reply into its lane's learned view.

        O(1) unless the sender reports a view above its last report; then
        the learned view becomes the (f+1)-th highest report, the highest
        view that f+1 distinct replicas have reached.  Reports only rise,
        so the learned view never falls."""
        view = message.view
        lane = self._reply_lane(message.sequence)
        reported = self._reported[lane]
        if view <= reported.get(message.sender, 0):
            return
        reported[message.sender] = view
        if view <= self._views[lane] or len(reported) < self._vouchers:
            return
        self._views[lane] = sorted(reported.values(), reverse=True)[self._vouchers - 1]

    def _arm_timer(self, request_id: int, pending: PendingRequest) -> None:
        """Arm the timer that guards a (re)sent request: exponential
        backoff (with jitter) keeps retransmissions from compounding an
        overload."""
        if self.config.client_retransmit is not None:
            pending.timer = Timer(
                self.sim,
                self.backoff.delay(pending.retransmissions + pending.nacks),
                self._on_retransmit, request_id,
            )

    def _release_deferred(self) -> None:
        while self._deferred and len(self.pending) < self.window.size:
            self._deferred -= 1
            self._send_new_request()

    def _on_retransmit(self, request_id: int) -> None:
        pending = self.pending.get(request_id)
        if pending is None:
            return
        pending.retransmissions += 1
        self._retransmit(request_id, pending)
        self._arm_timer(request_id, pending)

    def _retransmit(self, request_id: int, pending: PendingRequest) -> None:
        """A client that suspects the primary broadcasts the request to
        all replicas, which forward it to the current primary."""
        for rid in self.system.replica_ids:
            self.system.network.send(self.name, rid, pending.request)

    # ------------------------------------------------------------------
    # overload signals (busy-nack)
    # ------------------------------------------------------------------
    def _handle_busy(self, message) -> None:
        """A replica refused or shed one of our requests: treat it as a
        congestion signal (shrink the window, back off, steer away)."""
        self.busy_nacks_received += 1
        self.window.on_congestion(self.sim.now)
        for request_id in message.request_ids:
            pending = self.pending.get(request_id)
            if pending is None:
                continue  # answered by another replica in the meantime
            pending.nacks += 1
            if pending.timer is not None:
                pending.timer.cancel()
            delay = self.backoff.delay(pending.retransmissions + pending.nacks)
            pending.timer = Timer(self.sim, delay, self._retry_after_nack, request_id)

    def _retry_after_nack(self, request_id: int) -> None:
        """Resend a NACKed request to its steer target only — the primary
        is alive, just busy; a suspect-the-primary broadcast would
        multiply exactly the load that caused the NACK."""
        pending = self.pending.get(request_id)
        if pending is None or pending.request is None:
            return
        pending.retransmissions += 1
        self.system.network.send(
            self.name, self._steer_target(request_id), pending.request
        )
        self._arm_timer(request_id, pending)

    # ------------------------------------------------------------------
    # response handling
    # ------------------------------------------------------------------
    def _spec_quorum(self) -> int:
        """Matching spec-responses that complete a request (PoE's each
        carry a 2f+1 support quorum already)."""
        return self.system.quorum.certificate_quorum

    def _inbox_loop(self):
        quorum_needed = self.system.quorum.client_response_quorum
        fast_needed = self._spec_quorum()
        upper_bound = not self.config.consensus_enabled
        while True:
            message = yield self.endpoint.inbox.get()
            kind = message.kind
            if kind == "client-response":
                self._learn_view(message)
                for request_id in message.request_ids:
                    pending = self.pending.get(request_id)
                    if pending is None:
                        continue
                    responses = pending.responses
                    if responses is None:
                        responses = pending.responses = {}
                    responses[message.sender] = message.result_digest
                    matching = sum(
                        1
                        for digest in responses.values()
                        if digest == message.result_digest
                    )
                    if upper_bound or matching >= quorum_needed:
                        self._complete(
                            request_id, fast=True,
                            sequence=message.sequence,
                            digest=message.result_digest,
                        )
            elif kind == "spec-response":
                self._learn_view(message)
                key = (
                    message.view,
                    message.sequence,
                    message.result_digest,
                    message.history_hash,
                )
                for request_id in message.request_ids:
                    pending = self.pending.get(request_id)
                    if pending is None:
                        continue
                    matches = pending.spec_matches
                    if matches is None:
                        matches = pending.spec_matches = {}
                    responders = matches.setdefault(key, set())
                    responders.add(message.sender)
                    if len(responders) >= fast_needed:
                        self._complete(
                            request_id, fast=True,
                            sequence=message.sequence,
                            digest=message.result_digest,
                        )
            elif kind == "busy-nack":
                self._handle_busy(message)
            else:
                self._handle_other_reply(message)

    def _handle_other_reply(self, message) -> None:
        """A reply kind these client rules do not speak (an engine's
        client subclass handles its own, e.g. Zyzzyva's local-commit)."""

    # ------------------------------------------------------------------
    def _complete(
        self,
        request_id: int,
        fast: bool,
        sequence: Optional[int] = None,
        digest: Optional[str] = None,
    ) -> None:
        pending = self.pending.pop(request_id, None)
        if pending is None:
            return
        # the request is answered: its retransmit (or engine) timer must
        # never fire again
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        self.window.on_success()
        if self.config.record_completions:
            self.completion_log.append((request_id, sequence, digest))
        self.completed_requests += 1
        metrics = self.system.metrics
        if fast:
            metrics.counter("fast_path_completions").increment()
        else:
            metrics.counter("slow_path_completions").increment()
        latency = self.sim.now - pending.submitted_at
        metrics.histogram("request_latency").record(latency)
        spans = self.system.spans
        if spans.enabled:
            spans.finish((self.name, request_id), self.sim.now)
        metrics.counter("requests_completed").increment()
        metrics.counter("txns_completed").increment(pending.txn_count)
        metrics.counter("ops_completed").increment(
            pending.txn_count * self.config.ops_per_txn
        )
        # closed loop: this logical client immediately issues its next
        # one, plus any deferred clients the window now has room for
        self._send_new_request()
        self._release_deferred()
