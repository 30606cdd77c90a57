"""Zyzzyva client rules (§5.10).

A request completes on 3f+1 matching spec-responses (the fast path).
Each (re)send arms the Zyzzyva client timer instead of a retransmit
backoff; if it fires with ≥ 2f+1 matching responses the client sends a
``CommitCertificate`` and completes on 2f+1 ``LocalCommit`` acks (the
slow path every request takes with one crashed backup: Fig. 17's
collapse).  With fewer, it resends the request to every replica.
"""

from __future__ import annotations

from repro.consensus.messages import CommitCertificate
from repro.core.clientmgr import ClientGroup, PendingRequest
from repro.sim.events import Timer


class ZyzzyvaClientGroup(ClientGroup):
    """Closed-loop clients of a Zyzzyva deployment."""

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
            if not pending.certificate_sent:
                pending.certificate_sent = True
                view, sequence, result_digest, _history = best_key
                pending.certificate_sequence = sequence
                pending.certificate_digest = result_digest
                certificate = CommitCertificate(
                    self.name, view, sequence, result_digest,
                    tuple(sorted(responders)[:commit_needed]),
                )
                if self.config.real_auth_tokens:
                    certificate.auth, _ = self.system.client_scheme.authenticate(
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
