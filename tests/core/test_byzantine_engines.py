"""Byzantine policies against the speculative engines (Zyzzyva, PoE).

``tests/core/test_byzantine.py`` pins the PBFT behaviours; these tests
cover the same adversary policies under the two speculative protocols,
where the safety story is different: replicas execute before agreement
completes, so the guarantee lives in the *client* quorums — the all-n
fast path, the commit-certificate fallback (Zyzzyva), and the support
quorum (PoE).
"""

import pytest

from repro.core import ResilientDBSystem
from repro.core.clientmgr import ClientGroup
from repro.fuzz.oracles import check_client_replies
from repro.sim.clock import millis


@pytest.fixture
def zyzzyva_config(small_config):
    # n=7 tolerates f=2; the 4s default client timeout must shrink far
    # below the measurement window or the certificate fallback never runs
    return small_config.with_options(
        protocol="zyzzyva",
        num_replicas=7,
        num_clients=48,
        batch_size=6,
        zyzzyva_client_timeout=millis(10),
        record_completions=True,
    )


@pytest.fixture
def poe_config(small_config):
    return small_config.with_options(
        protocol="poe",
        num_replicas=7,
        num_clients=48,
        batch_size=6,
        record_completions=True,
    )


def _assert_client_replies_safe(system, faulty):
    executed_logs = {
        rid: replica.ledger.executed_log for rid, replica in system.replicas.items()
    }
    for group in system.client_groups:
        check_client_replies(group.completion_log, executed_logs, faulty=faulty)


# ----------------------------------------------------------------------
# Zyzzyva
# ----------------------------------------------------------------------
def test_zyzzyva_conflicting_voter_forces_slow_path(zyzzyva_config, monkeypatch):
    """A backup corrupting its spec-response digests denies the all-n
    fast path; clients must still complete via commit certificates."""
    # count fast completions over the whole run: the result's counter
    # starts after warm-up
    fast = []
    complete = ClientGroup._complete

    def count_fast(group, request_id, fast_path, sequence=None, digest=None):
        if fast_path and request_id in group.pending:
            fast.append(request_id)
        complete(group, request_id, fast_path, sequence, digest)

    monkeypatch.setattr(ClientGroup, "_complete", count_fast)
    system = ResilientDBSystem(zyzzyva_config)
    system.make_byzantine("r6", "conflicting-voter")
    result = system.run()
    assert result.completed_requests > 50
    assert fast == []  # every reply set contained the corrupted digest
    system.validate_safety(faulty=("r6",))
    _assert_client_replies_safe(system, faulty=("r6",))


def test_zyzzyva_fast_path_without_byzantine_control(zyzzyva_config):
    """Sanity for the previous test: with every replica honest the same
    deployment completes on the fast path."""
    system = ResilientDBSystem(zyzzyva_config)
    result = system.run()
    assert result.completed_requests > 50
    assert result.fast_path_completions > 0
    system.validate_safety()


def test_zyzzyva_equivocating_primary_rejected_by_rehash(zyzzyva_config):
    """Forged digests fail the backups' re-hash check; whatever the
    clients saw must match an honest execution."""
    system = ResilientDBSystem(zyzzyva_config)
    system.make_byzantine("r0", "equivocating-primary")
    system.run()
    rejected = sum(
        replica.invalid_messages
        for rid, replica in system.replicas.items()
        if rid != "r0"
    )
    assert rejected > 0
    system.validate_safety(faulty=("r0",))
    _assert_client_replies_safe(system, faulty=("r0",))


def test_zyzzyva_two_faced_primary_cannot_complete_conflicting_replies(
    zyzzyva_config,
):
    """Both proposals are internally valid, so speculative executions
    genuinely diverge — Zyzzyva permits that.  What it forbids is a
    client acting on the split: neither side can assemble the all-n fast
    quorum or a commit certificate, and no completed reply may contradict
    every honest execution."""
    system = ResilientDBSystem(zyzzyva_config)
    system.make_byzantine("r0", "two-faced-primary")
    result = system.run()
    assert result.completed_requests == 0
    _assert_client_replies_safe(system, faulty=("r0",))


# ----------------------------------------------------------------------
# PoE
# ----------------------------------------------------------------------
def test_poe_conflicting_voters_cannot_break_agreement(poe_config):
    system = ResilientDBSystem(poe_config)
    system.make_byzantine("r5", "conflicting-voter")
    system.make_byzantine("r6", "conflicting-voter")
    result = system.run()
    assert result.completed_requests > 50
    system.validate_safety(faulty=("r5", "r6"))
    _assert_client_replies_safe(system, faulty=("r5", "r6"))


def test_poe_equivocating_primary_rejected_by_rehash(poe_config):
    system = ResilientDBSystem(poe_config)
    system.make_byzantine("r0", "equivocating-primary")
    system.run()
    rejected = sum(
        replica.invalid_messages
        for rid, replica in system.replicas.items()
        if rid != "r0"
    )
    assert rejected > 0
    system.validate_safety(faulty=("r0",))
    _assert_client_replies_safe(system, faulty=("r0",))


def test_poe_two_faced_primary_cannot_complete_conflicting_replies(poe_config):
    """Neither side of the split reaches PoE's support quorum (5 of 7),
    so no batch certifies and no client may act on the equivocation."""
    system = ResilientDBSystem(poe_config)
    system.make_byzantine("r0", "two-faced-primary")
    result = system.run()
    assert result.completed_requests == 0
    _assert_client_replies_safe(system, faulty=("r0",))
