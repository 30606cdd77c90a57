"""Zyzzyva client rules (§5.10).

A request completes on 3f+1 matching spec-responses (the fast path).
Each (re)send arms the Zyzzyva client timer instead of a retransmit
backoff; if it fires with ≥ 2f+1 matching responses the client sends a
``CommitCertificate`` and completes on 2f+1 ``LocalCommit`` acks (the
slow path every request takes with one crashed backup: Fig. 17's
collapse).  With fewer, it resends the request to every replica.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.consensus.messages import CommitCertificate
from repro.core.clientmgr import ClientGroup, PendingRequest
from repro.sim.events import Timer


class ZyzzyvaClientGroup(ClientGroup):
    """Closed-loop clients of a Zyzzyva deployment.

    Slow-path state lives here, not on every request record: only
    requests whose commit certificate is out have an entry, and it is
    dropped when the request completes.
    """

    def __init__(self, system, index: int, logical_clients: int):
        super().__init__(system, index, logical_clients)
        #: certificate sequence -> request id -> (certified result
        #: digest, replicas that acked it with a local-commit)
        self._awaiting_commit: Dict[int, Dict[int, Tuple[str, Set[str]]]] = {}
        #: request id -> the sequence its commit certificate names
        self._certified: Dict[int, int] = {}

    def _spec_quorum(self) -> int:
        return self.system.quorum.fast_path_quorum

    def _arm_timer(self, request_id: int, pending: PendingRequest) -> None:
        pending.timer = Timer(
            self.sim, self.config.zyzzyva_client_timeout,
            self._on_zyzzyva_timeout, request_id,
        )

    def _on_zyzzyva_timeout(self, request_id: int) -> None:
        pending = self.pending.get(request_id)
        if pending is None:
            return  # completed on the fast path; timer is moot
        commit_needed = self.system.quorum.certificate_quorum
        best_key, responders = None, set()
        for key, who in (pending.spec_matches or {}).items():
            if len(who) > len(responders):
                best_key, responders = key, who
        if best_key is not None and len(responders) >= commit_needed:
            if request_id not in self._certified:
                view, sequence, result_digest, _history = best_key
                self._certified[request_id] = sequence
                self._awaiting_commit.setdefault(sequence, {})[request_id] = (
                    result_digest, set(),
                )
                certificate = CommitCertificate(
                    self.name, view, sequence, result_digest,
                    tuple(sorted(responders)[:commit_needed]),
                )
                if self.config.real_auth_tokens:
                    certificate.auth = self.system.client_scheme.authenticate(
                        certificate.signable_bytes(), self.name,
                        list(self.system.replica_ids),
                    )
                for rid in self.system.replica_ids:
                    self.system.network.send(self.name, rid, certificate)
        else:
            # not even a certificate quorum: retransmit the whole request
            pending.retransmissions += 1
            self._retransmit(request_id, pending)
        # re-arm in case the certificate or the resent request gets lost
        self._arm_timer(request_id, pending)

    def _handle_other_reply(self, message) -> None:
        """A local-commit acks one certificate sequence: it counts for
        every request whose certificate names it, in request-id order."""
        if message.kind != "local-commit":
            return
        waiting = self._awaiting_commit.get(message.sequence)
        if waiting is None:
            return
        commit_needed = self.system.quorum.certificate_quorum
        for request_id in sorted(waiting):
            digest, acks = waiting[request_id]
            acks.add(message.sender)
            if len(acks) >= commit_needed:
                self._complete(
                    request_id, fast=False,
                    sequence=message.sequence, digest=digest,
                )

    def _complete(
        self,
        request_id: int,
        fast: bool,
        sequence: Optional[int] = None,
        digest: Optional[str] = None,
    ) -> None:
        certified = self._certified.pop(request_id, None)
        if certified is not None:
            waiting = self._awaiting_commit[certified]
            del waiting[request_id]
            if not waiting:
                del self._awaiting_commit[certified]
        super()._complete(request_id, fast, sequence, digest)
